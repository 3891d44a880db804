package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model._

/** Tests for the operator/query cost model and the paper-calibrated specs. */
class QueryModelSpec extends AnyFunSuite {

  private val s2s = Calibration.s2sProbe
  private val t2t = Calibration.t2tProbe()
  private val log = Calibration.logAnalytics

  /** CPU demand in cores of each operator on its full input at `rate`. */
  private def demands(q: QuerySpec, rate: Double): Vector[Double] = {
    val in = q.recsInto(rate)
    q.ops.indices.map(i => in(i) * q.ops(i).costSecPerRec).toVector
  }

  private def oneOp(op: OperatorSpec) = QuerySpec(op.name, Vector(op), op.bytesInPerRec, 1000)

  // ------------------------------------------------------------------
  // OperatorSpec
  // ------------------------------------------------------------------

  test("flow-through operator output is proportional to input") {
    val op = OperatorSpec("F", OpKind.Filter, 1e-6, 0.86, 86, 86)
    assert(math.abs(op.outRecsPerSec(1000) - 860) < 1e-9)
  }

  test("group-reduce output saturates at group count per window") {
    val op = OperatorSpec("G+R", OpKind.GroupReduce, 1e-6, 1.0, 86, 120,
      groupCount = 100, windowEpochs = 10)
    // High rates: every group occupied, one output per group per window.
    assert(math.abs(op.outRecsPerSec(100000.0) - 10.0) < 1e-6)
    // Low rates: output follows occupancy (50 window records over 100
    // groups occupy ~39 groups), never exceeding the input.
    val low = op.outRecsPerSec(5.0)
    assert(low < 5.0 && low > 3.0, s"low=$low")
    assert(op.outRecsPerSec(0.0) == 0.0)
  }

  test("group-reduce output is monotone in the input rate") {
    val op = OperatorSpec("G+R", OpKind.GroupReduce, 1e-6, 1.0, 86, 120,
      groupCount = 1000, windowEpochs = 10)
    val rates = Seq(1.0, 10.0, 100.0, 1000.0, 10000.0).map(op.outRecsPerSec)
    rates.zip(rates.drop(1)).foreach { case (a, b) => assert(b >= a - 1e-9) }
  }

  test("byte relay accounts for record-size change") {
    val op = OperatorSpec("J", OpKind.Join, 1e-6, 1.0, 86, 20)
    assert(math.abs(oneOp(op).byteRelays(1000)(0) - 20.0 / 86.0) < 1e-9)
  }

  test("byte relay of an empty stream is zero") {
    val op = OperatorSpec("F", OpKind.Filter, 1e-6, 0.86, 86, 86)
    assert(oneOp(op).byteRelays(0.0)(0) == 0.0)
  }

  test("invalid relay ratio is rejected") {
    intercept[IllegalArgumentException] {
      OperatorSpec("X", OpKind.Map, 1e-6, 1.2, 86, 86)
    }
  }

  // ------------------------------------------------------------------
  // QuerySpec plumbing
  // ------------------------------------------------------------------

  test("recsIntoOp composes relays along the chain") {
    val rate = s2s.inputRecsPerSec
    val in = s2s.recsInto(rate)
    assert(in.length == s2s.numOps + 1)
    assert(math.abs(in(0) - rate) < 1e-6)
    assert(math.abs(in(1) - rate * 0.86) < 1e-6)
  }

  test("recProducts starts at 1 and is non-increasing for reducing chains") {
    val prods = t2t.recProducts(t2t.inputRecsPerSec)
    assert(prods.head == 1.0)
    prods.zip(prods.drop(1)).foreach { case (a, b) => assert(b <= a + 1e-12) }
  }

  test("mbps round-trips with recsPerSecFor") {
    val r = s2s.recsPerSecFor(26.2)
    assert(math.abs(s2s.mbps(r) - 26.2) < 1e-9)
  }

  test("first operator must consume raw input records") {
    intercept[IllegalArgumentException] {
      QuerySpec("bad", Vector(OperatorSpec("F", OpKind.Filter, 1e-6, 1.0, 50, 50)), 86, 1000)
    }
  }

  // ------------------------------------------------------------------
  // Paper calibration (§VI-A, §VI-B)
  // ------------------------------------------------------------------

  test("S2SProbe input rate is 26.2 Mbps of 86-byte records") {
    assert(math.abs(s2s.mbps(s2s.inputRecsPerSec) - 26.2) < 0.01)
    assert(s2s.inputRecBytes == 86.0)
  }

  test("S2SProbe F costs 13% of a core at full rate") {
    assert(math.abs(demands(s2s, s2s.inputRecsPerSec)(0) - 0.13) < 1e-6)
  }

  test("S2SProbe full query needs ~85% of a core") {
    val total = demands(s2s, s2s.inputRecsPerSec).sum
    assert(math.abs(total - 0.85) < 1e-6, s"total=$total")
  }

  test("T2TProbe total demand exceeds one core at reference table size") {
    val total = demands(t2t, t2t.inputRecsPerSec).sum
    assert(total > 1.0, s"total=$total")
  }

  test("T2TProbe F+J alone exceeds one core (Best-OP can never place J)") {
    val fj = demands(t2t, t2t.inputRecsPerSec).take(2).sum
    assert(fj > 1.0, s"F+J=$fj")
  }

  test("T2T join cost grows with static table size") {
    val c50 = Calibration.t2tJoinCores(50)
    val c500 = Calibration.t2tJoinCores(500)
    val c5000 = Calibration.t2tJoinCores(5000)
    assert(c50 < c500 && c500 < c5000)
  }

  test("T2T join projection shrinks records") {
    assert(t2t.ops(1).bytesOutPerRec < t2t.ops(1).bytesInPerRec)
  }

  test("LogAnalytics input rate is 49.6 Mbps") {
    assert(math.abs(log.mbps(log.inputRecsPerSec) - 49.6) < 0.01)
  }

  test("LogAnalytics full query uses ~31% of a core") {
    val total = demands(log, log.inputRecsPerSec).sum
    assert(math.abs(total - 0.31) < 1e-6, s"total=$total")
  }

  test("byte relays of S2SProbe: filter ~0.86, aggregation strongly reducing") {
    val relays = s2s.byteRelays(s2s.inputRecsPerSec)
    assert(math.abs(relays(0) - 0.86) < 1e-6)
    assert(relays(1) < 0.15, s"aggregation relay=${relays(1)}")
  }

  test("per-query per-source bandwidth is 2.048 Mbps x scale") {
    assert(math.abs(Calibration.PerSourceBandwidthMbps - 20.48) < 1e-9)
  }

  // ------------------------------------------------------------------
  // The one static pass and the flow model
  // ------------------------------------------------------------------

  test("flow at full load factors agrees exactly with recsInto") {
    val specs = Seq(s2s, log, Calibration.logP95) ++ Seq(50L, 500L, 1000L).map(Calibration.t2tProbe)
    for (q <- specs; rate <- Seq(0.0, 1.0, q.inputRecsPerSec, 10 * q.inputRecsPerSec)) {
      val what = s"${q.name} at $rate rec/s"
      val in = q.recsInto(rate)
      val obs = q.flow(Vector.fill(q.numOps)(1.0), rate, Double.PositiveInfinity)
      assert(obs.proxies.map(_.incoming) == in.take(q.numOps), what)
      assert(obs.cpuDemand == q.ops.indices.foldLeft(0.0)((d, i) => d + in(i) * q.ops(i).costSecPerRec), what)
      assert(obs.outputBytes == in(q.numOps) * q.ops.last.bytesOutPerRec, what)
    }
  }
}
