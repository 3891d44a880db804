package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model.Calibration
import repro.core.plan._

/** Tests for the §IV-B placement rules (R-1…R-4) and control-proxy
  * insertion.
  */
class QueryPlannerSpec extends AnyFunSuite {

  private val window = LogicalOperator("W")
  private val filter = LogicalOperator("F")
  private val join = LogicalOperator("J")
  private val groupAgg = LogicalOperator("G+R")

  test("a fully eligible pipeline runs entirely behind proxies on the source") {
    val p = QueryPlanner.plan(Vector(window, filter, join, groupAgg))
    assert(p.sourceOps.map(_.name) == Vector("W", "F", "J", "G+R"))
    assert(p.spOnlyOps.isEmpty)
    assert(p.numProxies == 4)
    assert(p.rejections.isEmpty)
  }

  test("R-1: non-incremental aggregation (exact quantiles) stays on the SP") {
    val exactQuantile = LogicalOperator("Q-exact", incremental = false)
    val p = QueryPlanner.plan(Vector(filter, exactQuantile))
    assert(p.sourceOps.map(_.name) == Vector("F"))
    assert(p.rejections.head.rule == "R-1")
  }

  test("R-1: approximate quantiles (incremental) are eligible") {
    val approxQuantile = LogicalOperator("Q-approx", incremental = true)
    val p = QueryPlanner.plan(Vector(filter, approxQuantile))
    assert(p.spOnlyOps.isEmpty)
  }

  test("R-2: operators needing cross-source state stay on the SP") {
    val global = LogicalOperator("GlobalTopK", requiresCrossSourceState = true)
    val p = QueryPlanner.plan(Vector(filter, global, groupAgg))
    assert(p.sourceOps.map(_.name) == Vector("F"))
    assert(p.rejections.head.rule == "R-2")
  }

  test("R-2: everything downstream of the boundary stays on the SP too") {
    val global = LogicalOperator("GlobalTopK", requiresCrossSourceState = true)
    val p = QueryPlanner.plan(Vector(filter, global, groupAgg))
    assert(p.spOnlyOps.map(_.name) == Vector("GlobalTopK", "G+R"))
  }

  test("R-3: stream-stream joins stay on the SP; static-table joins do not") {
    val ssJoin = LogicalOperator("J-stream", streamStreamJoin = true)
    val p = QueryPlanner.plan(Vector(filter, ssJoin))
    assert(p.sourceOps.map(_.name) == Vector("F"))
    assert(p.rejections.head.rule == "R-3")
    assert(QueryPlanner.plan(Vector(filter, join)).spOnlyOps.isEmpty)
  }

  test("R-4: intra-operator parallelism is blocked on the data source") {
    val par = LogicalOperator("G+R-par", physicalParallelism = 4)
    val p = QueryPlanner.plan(Vector(filter, par))
    assert(p.sourceOps.map(_.name) == Vector("F"))
    assert(p.rejections.head.rule == "R-4")
  }

  test("R-4 does not apply on intermediate stream processors (§IV-B)") {
    val par = LogicalOperator("G+R-par", physicalParallelism = 4)
    val p = QueryPlanner.plan(Vector(filter, par), intermediateSp = true)
    assert(p.spOnlyOps.isEmpty)
  }

  test("R-1..R-3 still apply on intermediate stream processors") {
    val exact = LogicalOperator("Q-exact", incremental = false)
    val p = QueryPlanner.plan(Vector(filter, exact), intermediateSp = true)
    assert(p.sourceOps.map(_.name) == Vector("F"))
  }

  test("rules are extensible via configuration (§IV-B)") {
    val noJoins = PlacementRule("custom-no-joins", appliesToIntermediateSp = false,
      op => if (op.name.startsWith("J")) Some("site policy: no joins at sources") else None)
    val p = QueryPlanner.plan(Vector(filter, join, groupAgg), PlacementRules.extended(noJoins))
    assert(p.sourceOps.map(_.name) == Vector("F"))
    assert(p.rejections.head.rule == "custom-no-joins")
  }

  test("an ineligible first operator leaves everything on the SP") {
    val ssJoin = LogicalOperator("J-stream", streamStreamJoin = true)
    val p = QueryPlanner.plan(Vector(ssJoin, filter))
    assert(p.sourceOps.isEmpty && p.numProxies == 0)
  }

  test("the evaluation queries are fully source-eligible after the rules") {
    // S2SProbe / T2TProbe / LogAnalytics all use incremental aggregates,
    // static-table joins and single physical operators (why the paper can
    // evaluate data-level partitioning on them end to end).
    for (q <- Seq(
        Vector(window, filter, groupAgg),
        Vector(window, filter, join, groupAgg),
        Vector(window, filter, LogicalOperator("M"), groupAgg))) {
      assert(QueryPlanner.plan(q).spOnlyOps.isEmpty)
    }
  }

  test("the query specs plan their proxies: R-1 keeps only the exact p95 on the SP") {
    for (q <- Seq(Calibration.s2sProbe, Calibration.t2tProbe(), Calibration.logAnalytics)) {
      assert(q.plan.numProxies == q.numOps && q.plan.rejections.isEmpty, q.name)
      assert(q.proxied == q, q.name)
    }
    val p95 = Calibration.logP95
    assert(p95.numProxies == 2)
    assert(p95.plan.rejections.map(r => (r.op, r.rule)) == Vector(("P95", "R-1")))
    assert(p95.proxied.ops == p95.ops.take(2))
  }
}
