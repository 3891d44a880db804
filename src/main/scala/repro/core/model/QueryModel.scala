package repro.core.model

import repro.core.adapt.{EpochObs, ProfileEstimates, ProxyObs}
import repro.core.plan.{LogicalOperator, QueryPlanner}

/** Kind of a stream operator in a monitoring query DAG (paper §II-A).
  *
  * The Window assigner carries no per-record compute cost and is folded into
  * ingestion; the partitionable operators are the costed ones below.
  */
sealed trait OpKind
object OpKind {
  /** Per-record predicate; drops uninteresting records. */
  case object Filter extends OpKind
  /** User-defined transformation (parse / split / project). */
  case object Map extends OpKind
  /** Stream joined with a static table (hash lookups). */
  case object Join extends OpKind
  /** Grouping + incremental reduction (hash aggregation). */
  case object GroupReduce extends OpKind
  /** Grouping + holistic reduction (exact quantile): its state does not
    * merge incrementally, so placement rule R-1 keeps it off the source.
    * Its output is modelled as [[GroupReduce]]'s.
    */
  case object HolisticReduce extends OpKind
}

/** One stream operator with its steady-state cost/relay characteristics.
  *
  * @param name          display name ("F", "J", "G+R", ...)
  * @param kind          operator kind
  * @param costSecPerRec CPU-seconds to process one input record
  * @param recRelay      output records per input record (flow-through ops);
  *                      for a grouping kind the output is bounded by
  *                      `groupCount` per window instead
  * @param bytesInPerRec serialized wire size of one input record — the cost
  *                      of draining a record at this operator's proxy
  * @param bytesOutPerRec serialized wire size of one output record
  * @param groupCount    for a grouping kind: distinct groups per window
  * @param windowEpochs  for a grouping kind: epochs per emission window
  */
final case class OperatorSpec(
    name: String,
    kind: OpKind,
    costSecPerRec: Double,
    recRelay: Double,
    bytesInPerRec: Double,
    bytesOutPerRec: Double,
    groupCount: Long = 0L,
    windowEpochs: Int = 1,
) {
  require(costSecPerRec >= 0, s"negative cost for $name")
  require(recRelay >= 0 && recRelay <= 1, s"record relay out of [0,1] for $name")

  /** This operator as the §IV-B planner sees it. Of the placement flags only
    * `incremental` follows from a kind; no operator here needs the others.
    */
  def logical: LogicalOperator = LogicalOperator(name, incremental = kind != OpKind.HolisticReduce)

  /** Output records per second given input records per second.
    *
    * GroupReduce emits one record per *occupied* group per window, amortized
    * over the window's epochs; occupancy follows the balls-in-bins
    * expectation g·(1 − e^(−n/g)) for n window records over g groups, so at
    * low rates (few probes per pair per window) the aggregation deduplicates
    * little and at high rates it saturates at the group count. Flow-through
    * operators are proportional.
    */
  def outRecsPerSec(inRecsPerSec: Double): Double = kind match {
    case OpKind.GroupReduce | OpKind.HolisticReduce =>
      if (inRecsPerSec <= 0 || groupCount <= 0) 0.0
      else {
        val windowRecs = inRecsPerSec * windowEpochs
        val occupied = groupCount.toDouble * (1.0 - math.exp(-windowRecs / groupCount.toDouble))
        math.min(inRecsPerSec, occupied / windowEpochs)
      }
    case _ => inRecsPerSec * recRelay
  }
}

/** A monitoring query: a chain of operators over a record stream.
  *
  * @param name           query name (S2SProbe / T2TProbe / LogAnalytics)
  * @param ops            operators in topological (pipeline) order
  * @param inputRecBytes  wire size of one raw input record
  * @param inputRecsPerSec calibrated full input record rate (at scale x10)
  */
final case class QuerySpec(
    name: String,
    ops: Vector[OperatorSpec],
    inputRecBytes: Double,
    inputRecsPerSec: Double,
) {
  require(ops.nonEmpty, "query needs at least one operator")
  require(
    math.abs(ops.head.bytesInPerRec - inputRecBytes) < 1e-9,
    "first operator must consume raw input records",
  )

  def numOps: Int = ops.length

  /** The §IV-B plan: the placement rules split the operators into a
    * source-eligible prefix, one control proxy each, and an SP-only rest.
    */
  lazy val plan: QueryPlanner.PlannedQuery = QueryPlanner.plan(ops.map(_.logical))

  /** Control proxies the planner inserts: the operators the runtime adapts. */
  def numProxies: Int = plan.numProxies

  /** The query as its control proxies see it: the proxied prefix alone. The
    * records its last operator sends on to an SP-only operator count as the
    * output, as the LP counts the final output (`W_M = σ_1`). The LP, the
    * runtime and [[flow]] see this spec.
    */
  lazy val proxied: QuerySpec = if (numProxies == numOps) this else copy(ops = ops.take(numProxies))

  /** Records per second into each operator and out of the last (length
    * M+1) when every load factor is 1, for a source input rate — the one
    * static pass over the chain. Eq. 3's relay products, the Profile
    * relays, the byte relays and the full-stream CPU demands all read it.
    */
  def recsInto(inputRate: Double): Vector[Double] =
    ops.scanLeft(inputRate)((r, op) => op.outRecsPerSec(r))

  /** Record-relay products R_k = prod_{j<k} rho_j at a rate (length M+1,
    * R_0 = 1) — the fraction of input records reaching proxy k when all
    * load factors are 1.
    */
  def recProducts(inputRate: Double): Vector[Double] =
    recsInto(inputRate).map(r => if (inputRate <= 0) 0.0 else r / inputRate)

  /** Record flow of one epoch through the control proxies (paper §IV-A,
    * §IV-C, Fig. 5) — the one performance model behind the epoch simulator
    * and the cluster model.
    *
    * The proxy in front of operator i forwards `p(i)` of its incoming
    * records to the operator and drains the rest. The planned pass sums the
    * CPU demand of the forwarded records. When it exceeds `capacity`, only
    * the fraction `Calibration.overloadScale(demand, capacity)` of the
    * forwarded records gets processed; the effective pass applies that
    * scale at every proxy and force-drains the shortfall, which compounds
    * downstream as backpressure does. Drains are charged at the operator's
    * input record size; output bytes are the last operator's output.
    *
    * @param p         load factor of each proxy
    * @param inputRecs records entering the first proxy
    * @param capacity  CPU-seconds available for them
    */
  def flow(p: Vector[Double], inputRecs: Double, capacity: Double): EpochObs = {
    require(p.length == numOps, "load factor arity mismatch")
    // Index loops, not zip/map/sum: the simulator calls this every epoch,
    // and with those combinators a runtime step took twice as long.
    var in = inputRecs
    var demand = 0.0
    var i = 0
    while (i < numOps) {
      demand += p(i) * in * ops(i).costSecPerRec
      in = ops(i).outRecsPerSec(p(i) * in)
      i += 1
    }
    val scale = Calibration.overloadScale(demand, capacity)
    val proxies = Vector.newBuilder[ProxyObs]
    var drainedBytes = 0.0
    in = inputRecs
    i = 0
    while (i < numOps) {
      val px = ProxyObs(in, p(i) * in, p(i) * in * scale)
      proxies += px
      drainedBytes += px.drained * ops(i).bytesInPerRec
      in = ops(i).outRecsPerSec(px.processed)
      i += 1
    }
    EpochObs(proxies.result(), demand, capacity, drainedBytes, in * ops.last.bytesOutPerRec)
  }

  /** Wire bytes per record at the input of each operator (length M). */
  def bytesAtOp: Vector[Double] = ops.map(_.bytesInPerRec)

  /** What an exact Profile epoch estimates at `recsPerSec` input records
    * per second under `budgetCores` (paper §IV-C): the calibrated costs,
    * the record relays, the input sizes and the budget per record, with a
    * rate below one record per second counted as one.
    */
  def estimates(recsPerSec: Double, budgetCores: Double): ProfileEstimates = {
    val r = math.max(recsPerSec, 1.0)
    val prods = recProducts(r)
    val relays = Vector.tabulate(numOps)(i => if (prods(i) <= 0) 0.0 else prods(i + 1) / prods(i))
    ProfileEstimates(ops.map(_.costSecPerRec), relays, bytesAtOp, budgetCores / r)
  }

  /** Input megabits per second at a given record rate. */
  def mbps(recsPerSec: Double): Double = recsPerSec * inputRecBytes * 8 / 1e6

  /** Record rate for a given input megabits per second. */
  def recsPerSecFor(mbps: Double): Double = mbps * 1e6 / 8 / inputRecBytes

  /** Byte relay ratios r_i (output bytes / input bytes) per operator at the
    * full input rate — the "relay ratio" of paper Table II.
    */
  def byteRelays(inputRate: Double): Vector[Double] = {
    val in = recsInto(inputRate)
    Vector.tabulate(numOps) { i =>
      if (in(i) <= 0) 0.0 else in(i + 1) * ops(i).bytesOutPerRec / (in(i) * ops(i).bytesInPerRec)
    }
  }
}
