package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model.Calibration
import repro.core.strategy.PartitionStrategy
import repro.core.strategy.PartitionStrategy._

/** Tests for the steady-state throughput/latency model. */
class ClusterSimSpec extends AnyFunSuite {

  private val s2s = Calibration.s2sProbe
  private val t2t = Calibration.t2tProbe()
  private val log = Calibration.logAnalytics
  private val Bw = Calibration.PerSourceBandwidthMbps

  private def tput(q: repro.core.model.QuerySpec, s: PartitionStrategy, budget: Int,
                   in: Double = Calibration.PingmeshMbps) =
    ClusterSim.singleSourceThroughput(q, s, budget, in, Bw)

  // ------------------------------------------------------------------
  // Single source (T1 shapes)
  // ------------------------------------------------------------------

  test("All-SP throughput is bandwidth-bound and flat in CPU") {
    val r20 = tput(s2s, AllSp, 20)
    val r100 = tput(s2s, AllSp, 100)
    assert(math.abs(r20.throughputMbps - r100.throughputMbps) < 1e-9)
    assert(r20.throughputMbps < Calibration.PingmeshMbps)
    assert(math.abs(r20.throughputMbps - Bw) < 1e-6)
  }

  test("All-Src at 100% handles the full S2S input") {
    val r = tput(s2s, AllSrc, 100)
    assert(math.abs(r.throughputMbps - Calibration.PingmeshMbps) < 0.01)
  }

  test("All-Src collapses super-linearly below its demand") {
    val r60 = tput(s2s, AllSrc, 60)
    val proportional = Calibration.PingmeshMbps * 0.60 / 0.85
    assert(r60.throughputMbps < proportional, s"got ${r60.throughputMbps}")
    assert(r60.throughputMbps > 0.2 * proportional)
  }

  test("All-Src emits only result bytes") {
    val r = tput(s2s, AllSrc, 100)
    assert(r.netMbps < 2.0, s"net=${r.netMbps}")
  }

  test("Filter-Src on S2S is network-bound (low filter-out rate)") {
    val r = tput(s2s, FilterSrc, 80)
    assert(r.netMbps > Bw, "filtered stream should exceed the bandwidth share")
    assert(r.throughputMbps < Calibration.PingmeshMbps)
  }

  test("Jarvis meets the full input rate in the 40-100% range on S2S") {
    for (b <- Seq(40, 60, 80, 100)) {
      val r = tput(s2s, Jarvis, b)
      assert(math.abs(r.throughputMbps - Calibration.PingmeshMbps) < 0.01,
        s"budget $b: ${r.throughputMbps}")
    }
  }

  test("Jarvis dominates every baseline on S2S across budgets") {
    for (b <- Seq(20, 40, 60, 80, 100); s <- PartitionStrategy.all if s != Jarvis) {
      val j = tput(s2s, Jarvis, b).throughputMbps
      val o = tput(s2s, s, b).throughputMbps
      assert(j >= o - 0.01, s"budget $b: Jarvis $j < ${s.name} $o")
    }
  }

  test("Jarvis dominates every baseline on T2T across budgets") {
    for (b <- Seq(20, 40, 60, 80, 100); s <- PartitionStrategy.all if s != Jarvis) {
      val j = tput(t2t, Jarvis, b).throughputMbps
      val o = tput(t2t, s, b).throughputMbps
      assert(j >= o - 0.01, s"budget $b: Jarvis $j < ${s.name} $o")
    }
  }

  test("Jarvis dominates every baseline on LogAnalytics across budgets") {
    for (b <- Seq(20, 40, 60, 80, 100); s <- PartitionStrategy.all if s != Jarvis) {
      val j = tput(log, Jarvis, b, Calibration.LogMbps).throughputMbps
      val o = tput(log, s, b, Calibration.LogMbps).throughputMbps
      assert(j >= o - 0.01, s"budget $b: Jarvis $j < ${s.name} $o")
    }
  }

  test("Jarvis beats All-Src substantially at 60% on S2S (paper: 2.6x)") {
    val ratio = tput(s2s, Jarvis, 60).throughputMbps / tput(s2s, AllSrc, 60).throughputMbps
    assert(ratio > 1.3, s"ratio=$ratio")
  }

  test("Jarvis beats All-Src heavily at 40% on T2T (paper: 4.4x)") {
    val ratio = tput(t2t, Jarvis, 40).throughputMbps / tput(t2t, AllSrc, 40).throughputMbps
    assert(ratio > 2.5, s"ratio=$ratio")
  }

  test("Jarvis beats Best-OP at 80% on S2S (paper: 1.25x)") {
    val ratio = tput(s2s, Jarvis, 80).throughputMbps / tput(s2s, BestOp, 80).throughputMbps
    assert(ratio > 1.05, s"ratio=$ratio")
  }

  test("Jarvis beats All-SP on LogAnalytics in the 40-100% range (paper: 2.3x)") {
    for (b <- Seq(40, 60, 80, 100)) {
      val ratio = tput(log, Jarvis, b, Calibration.LogMbps).throughputMbps /
        tput(log, AllSp, b, Calibration.LogMbps).throughputMbps
      assert(ratio > 2.0, s"budget $b: ratio=$ratio")
    }
  }

  test("throughput is monotone in budget for Jarvis") {
    val ts = Seq(10, 20, 40, 60, 80, 100).map(tput(s2s, Jarvis, _).throughputMbps)
    ts.zip(ts.drop(1)).foreach { case (a, b) => assert(b >= a - 1e-9) }
  }

  test("source perf conserves bytes: drains never exceed input") {
    for (b <- Seq(20, 60, 100); s <- PartitionStrategy.all) {
      val r = tput(s2s, s, b)
      assert(r.netMbps <= Calibration.PingmeshMbps + 2.0, s"${s.name}@$b: ${r.netMbps}")
    }
  }

  // ------------------------------------------------------------------
  // Multi-source (T5 shapes)
  // ------------------------------------------------------------------

  test("aggregate throughput scales linearly until the link saturates") {
    val small = ClusterSim.multiSourceThroughput(s2s, Jarvis, 0.55, 26.2, 4)
    val atCap = ClusterSim.multiSourceThroughput(s2s, Jarvis, 0.55, 26.2, 200)
    assert(math.abs(small.aggThroughputMbps - 4 * 26.2) < 0.1)
    assert(atCap.aggThroughputMbps < 200 * 26.2)
  }

  test("Jarvis supports more sources than Best-OP at the paper's x10 setting") {
    val j = ClusterSim.maxSupportedSources(s2s, Jarvis, 0.55, 26.2)
    val b = ClusterSim.maxSupportedSources(s2s, BestOp, 0.55, 26.2)
    assert(j > b, s"jarvis=$j bestop=$b")
  }

  test("latency grows with link utilization") {
    val lo = ClusterSim.multiSourceThroughput(s2s, BestOp, 0.55, 26.2, 4)
    val hi = ClusterSim.multiSourceThroughput(s2s, BestOp, 0.55, 26.2, 20)
    assert(hi.medianLatencyMs > lo.medianLatencyMs)
  }

  test("saturated links report the >60s latency sentinel") {
    val r = ClusterSim.multiSourceThroughput(s2s, BestOp, 0.55, 26.2, 200)
    assert(r.medianLatencyMs >= 60e3)
  }

  test("Jarvis latency is lower than Best-OP at matched load (paper: 3.4x)") {
    val j = ClusterSim.multiSourceThroughput(s2s, Jarvis, 0.30, 13.1, 40)
    val b = ClusterSim.multiSourceThroughput(s2s, BestOp, 0.30, 13.1, 40)
    assert(j.medianLatencyMs < b.medianLatencyMs,
      s"jarvis=${j.medianLatencyMs} bestop=${b.medianLatencyMs}")
  }
}
