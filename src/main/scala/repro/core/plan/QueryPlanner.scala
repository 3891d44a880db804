package repro.core.plan

/** A logical stream operator as seen by the query planner (paper §IV-B),
  * carrying the capability flags the placement rules inspect.
  *
  * @param name                    display name
  * @param incremental             aggregation state merges incrementally
  *                                (sum/count/min/max, approximate quantiles);
  *                                false for e.g. exact quantiles
  * @param requiresCrossSourceState needs state aggregated across multiple
  *                                data sources before it can run
  * @param streamStreamJoin        joins two live streams (static-table joins
  *                                are fine)
  * @param physicalParallelism     physical operator instances per logical
  *                                operator (>1 = intra-operator parallelism)
  */
final case class LogicalOperator(
    name: String,
    incremental: Boolean = true,
    requiresCrossSourceState: Boolean = false,
    streamStreamJoin: Boolean = false,
    physicalParallelism: Int = 1,
)

/** A placement rule: returns Some(reason) when the operator may NOT be
  * placed on the given tier.
  */
final case class PlacementRule(id: String, appliesToIntermediateSp: Boolean,
                               reject: LogicalOperator => Option[String])

/** The paper's default rule set (§IV-B, R-1…R-4). Rules live in a plain
  * data structure ("described in a configuration file and can be
  * extended") — custom rules are appended via [[PlacementRules.extended]].
  */
object PlacementRules {

  val R1: PlacementRule = PlacementRule("R-1", appliesToIntermediateSp = true,
    op => if (!op.incremental) Some("aggregation is not incrementally updatable") else None)

  val R2: PlacementRule = PlacementRule("R-2", appliesToIntermediateSp = true,
    op => if (op.requiresCrossSourceState)
      Some("requires aggregation state across multiple data sources") else None)

  val R3: PlacementRule = PlacementRule("R-3", appliesToIntermediateSp = true,
    op => if (op.streamStreamJoin) Some("stateful join across streams") else None)

  /** R-4 applies only to data sources: intermediate stream processors are
    * dedicated machines and may exploit intra-operator parallelism.
    */
  val R4: PlacementRule = PlacementRule("R-4", appliesToIntermediateSp = false,
    op => if (op.physicalParallelism > 1)
      Some("multiple physical operators per logical operator") else None)

  val default: Vector[PlacementRule] = Vector(R1, R2, R3, R4)

  def extended(extra: PlacementRule*): Vector[PlacementRule] = default ++ extra
}

/** Compile-time planning (paper §IV-B): apply the placement rules to find
  * the operator prefix eligible for source-side execution, then insert a
  * control proxy in front of every source-side operator.
  *
  * Every query plans through here: `QuerySpec.plan` passes the operators'
  * derived [[LogicalOperator]]s, and `QuerySpec.proxied`, the prefix this
  * plan proxies, is what the LP, the runtime, the flow model and the Spark
  * lane builder see.
  */
object QueryPlanner {

  /** Why an operator was kept off the data source. */
  final case class Rejection(op: String, rule: String, reason: String)

  /** A planned pipeline: `sourceOps` run on the data source behind one
    * control proxy each; everything from the first ineligible operator on
    * runs only on the stream processor (and is replicated there for the
    * drain paths of the source ops).
    */
  final case class PlannedQuery(
      sourceOps: Vector[LogicalOperator],
      spOnlyOps: Vector[LogicalOperator],
      rejections: Vector[Rejection],
  ) {
    /** One control proxy per source-side operator (Fig. 5). */
    def numProxies: Int = sourceOps.length
  }

  /** Plan for a data source (or an intermediate SP with
    * `intermediateSp = true`, where R-4 does not apply). Operators after the
    * first ineligible one stay on the SP even if individually eligible —
    * the pipeline prefix property of §IV-B.
    */
  def plan(
      ops: Vector[LogicalOperator],
      rules: Vector[PlacementRule] = PlacementRules.default,
      intermediateSp: Boolean = false,
  ): PlannedQuery = {
    val active = if (intermediateSp) rules.filter(_.appliesToIntermediateSp) else rules
    val rejections = Vector.newBuilder[Rejection]
    var boundary = ops.length
    var i = 0
    while (i < ops.length && boundary == ops.length) {
      val op = ops(i)
      active.flatMap(r => r.reject(op).map(r.id -> _)).headOption match {
        case Some((rule, reason)) =>
          rejections += Rejection(op.name, rule, reason)
          boundary = i
        case None => ()
      }
      i += 1
    }
    PlannedQuery(ops.take(boundary), ops.drop(boundary), rejections.result())
  }
}
