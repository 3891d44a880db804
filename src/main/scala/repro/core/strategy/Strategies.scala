package repro.core.strategy

import repro.core.lp.LoadFactorLP
import repro.core.model.{OpKind, QuerySpec}

/** A query-partitioning policy: given a query, a CPU budget (cores) and an
  * input record rate, produce the *effective* load factor vector
  * `e_i = Π_{j≤i} p_j` each data source runs with (paper §VI-A
  * "Baseline systems").
  *
  * Every baseline in the paper is a point in this space:
  *  - operator-level plans are 1/0 step vectors,
  *  - query-level input splitting is a constant vector,
  *  - Jarvis is the LP optimum.
  */
sealed trait PartitionStrategy {
  def name: String

  /** Whether the policy drains un-processable records to the SP (a data
    * path exists); All-Src has none, so over-subscription backlogs instead.
    */
  def drainsOverflow: Boolean = true

  def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double]
}

object PartitionStrategy {

  /** Run everything on the stream processor (Gigascope). */
  case object AllSp extends PartitionStrategy {
    val name = "All-SP"
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] =
      Vector.fill(q.numOps)(0.0)
  }

  /** Run everything on the data source — no drain path, so over-subscription
    * backlogs locally.
    */
  case object AllSrc extends PartitionStrategy {
    val name = "All-Src"
    override def drainsOverflow: Boolean = false
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] =
      Vector.fill(q.numOps)(1.0)
  }

  /** Static operator-level partitioning: only the leading filter prefix runs
    * at the source (Everflow).
    */
  case object FilterSrc extends PartitionStrategy {
    val name = "Filter-Src"
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] = {
      val prefixLen = q.ops.takeWhile(_.kind == OpKind.Filter).length
      Vector.tabulate(q.numOps)(i => if (i < prefixLen) 1.0 else 0.0)
    }
  }

  /** Dynamic operator-level partitioning (Sonata): the longest operator
    * prefix whose *full-stream* demand fits the budget runs at the source.
    */
  case object BestOp extends PartitionStrategy {
    val name = "Best-OP"
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] = {
      val in = q.recsInto(inputRate)
      val demands = q.ops.indices.map(i => in(i) * q.ops(i).costSecPerRec)
      val cumulative = demands.scanLeft(0.0)(_ + _).drop(1)
      val k = cumulative.lastIndexWhere(_ <= budgetCores + 1e-12) + 1
      Vector.tabulate(q.numOps)(i => if (i < k) 1.0 else 0.0)
    }
  }

  /** Query-level data partitioning (M3): a fraction of the input stream runs
    * through the *whole* pipeline at the source, sized to the source's
    * compute, the rest forwarded raw.
    */
  case object LbDp extends PartitionStrategy {
    val name = "LB-DP"
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] = {
      val full = q.flow(Vector.fill(q.numOps)(1.0), inputRate, Double.PositiveInfinity).cpuDemand
      val f = if (full <= 0) 1.0 else math.min(1.0, budgetCores / full)
      Vector.fill(q.numOps)(f)
    }
  }

  /** Jarvis' data-level partitioning: the LP optimum on true parameters
    * (what StepWise-Adapt converges to; convergence itself is evaluated
    * separately in the T2 experiment).
    */
  case object Jarvis extends PartitionStrategy {
    val name = "Jarvis"
    def effectiveLoadFactors(q: QuerySpec, budgetCores: Double, inputRate: Double): Vector[Double] =
      if (inputRate <= 0) Vector.fill(q.numOps)(1.0)
      else {
        val est = q.estimates(inputRate, budgetCores)
        LoadFactorLP.solve(est.costs, est.recRelays, est.bytesAtOp, est.budgetPerRec).e
      }
  }

  val all: Vector[PartitionStrategy] = Vector(AllSp, AllSrc, FilterSrc, BestOp, LbDp, Jarvis)
}
