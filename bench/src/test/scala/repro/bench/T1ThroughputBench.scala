package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model.Calibration
import repro.exp.Exp1Throughput

/** T1 — paper Fig. 7: single-source throughput vs CPU budget, six
  * partitioning strategies × three queries. Prints the tables and asserts
  * the paper's qualitative shape (who wins where, rough factors).
  */
class T1ThroughputBench extends AnyFunSuite {

  private lazy val setups = Exp1Throughput.setups
  private lazy val byQuery = setups.map(s => s.spec.name -> Exp1Throughput.run(s)).toMap

  private def t(query: String, strategy: String, budget: Int): Double =
    Exp1Throughput.resultFor(byQuery(query), strategy, budget).throughputMbps

  test("print T1 tables (Fig. 7a-c + Fig. 3 companion)") {
    Exp1Throughput.printAll()
    assert(byQuery.size == 3)
  }

  // ---------------- Fig. 7(a) S2SProbe ----------------

  test("S2S: Jarvis wins or ties every budget point (paper: gains in 40-80%)") {
    for (b <- Exp1Throughput.Budgets; s <- Seq("All-SP", "All-Src", "Filter-Src", "Best-OP", "LB-DP"))
      assert(t("S2SProbe", "Jarvis", b) >= t("S2SProbe", s, b) - 0.01, s"$s@$b")
  }

  test("S2S: All-Src declines drastically below 80% CPU (paper Fig. 7a)") {
    assert(t("S2SProbe", "All-Src", 100) > 26.0)
    assert(t("S2SProbe", "All-Src", 60) < 0.75 * 26.2)
    assert(t("S2SProbe", "All-Src", 20) < 0.25 * 26.2)
  }

  test("S2S: Jarvis over All-Src at 60% is a substantial factor (paper: 2.6x)") {
    val r = t("S2SProbe", "Jarvis", 60) / t("S2SProbe", "All-Src", 60)
    info(f"measured ratio: $r%.2f (paper: 2.6)")
    assert(r >= 1.4, s"ratio=$r")
  }

  test("S2S: Jarvis over Best-OP at 80% (paper: 1.25x)") {
    val r = t("S2SProbe", "Jarvis", 80) / t("S2SProbe", "Best-OP", 80)
    info(f"measured ratio: $r%.2f (paper: 1.25)")
    assert(r >= 1.05, s"ratio=$r")
  }

  test("S2S: All-SP is flat across budgets and below the input rate") {
    val vals = Exp1Throughput.Budgets.map(t("S2SProbe", "All-SP", _))
    assert(vals.distinct.size == 1)
    assert(vals.head < 26.2)
  }

  test("S2S: Best-OP jumps to full rate only at 85%+ CPU") {
    assert(t("S2SProbe", "Best-OP", 100) > 26.0)
    assert(t("S2SProbe", "Best-OP", 80) < 25.0)
  }

  test("S2S: LB-DP tracks Jarvis closely in mid budgets (paper: 1.16x at 60%)") {
    val r = t("S2SProbe", "Jarvis", 60) / t("S2SProbe", "LB-DP", 60)
    info(f"measured ratio: $r%.2f (paper: 1.16)")
    assert(r >= 1.0 - 1e-6 && r < 1.6, s"ratio=$r")
  }

  // ---------------- Fig. 7(b) T2TProbe ----------------

  test("T2T: Jarvis wins or ties every budget point (paper: gains in 40-100%)") {
    for (b <- Exp1Throughput.Budgets; s <- Seq("All-SP", "All-Src", "Filter-Src", "Best-OP", "LB-DP"))
      assert(t("T2TProbe", "Jarvis", b) >= t("T2TProbe", s, b) - 0.01, s"$s@$b")
  }

  test("T2T: All-Src cannot handle the input even at 100% CPU") {
    assert(t("T2TProbe", "All-Src", 100) < 0.8 * 26.2)
  }

  test("T2T: Jarvis over All-Src at 40% is a large factor (paper: 4.4x)") {
    val r = t("T2TProbe", "Jarvis", 40) / t("T2TProbe", "All-Src", 40)
    info(f"measured ratio: $r%.2f (paper: 4.4)")
    assert(r >= 3.0, s"ratio=$r")
  }

  test("T2T: Jarvis over Best-OP across 60-100% (paper: 1.2x)") {
    for (b <- Seq(60, 80, 100)) {
      val r = t("T2TProbe", "Jarvis", b) / t("T2TProbe", "Best-OP", b)
      info(f"budget $b%3d%%: ratio $r%.2f (paper: 1.2)")
      assert(r >= 1.05, s"budget $b: ratio=$r")
    }
  }

  test("T2T: Best-OP equals Filter-Src (the join never fits)") {
    for (b <- Exp1Throughput.Budgets)
      assert(math.abs(t("T2TProbe", "Best-OP", b) - t("T2TProbe", "Filter-Src", b)) < 0.01)
  }

  // ---------------- Fig. 7(c) LogAnalytics ----------------

  test("Log: Jarvis wins or ties every budget point") {
    for (b <- Exp1Throughput.Budgets; s <- Seq("All-SP", "All-Src", "Filter-Src", "Best-OP", "LB-DP"))
      assert(t("LogAnalytics", "Jarvis", b) >= t("LogAnalytics", s, b) - 0.01, s"$s@$b")
  }

  test("Log: Jarvis reaches full input from 40% CPU up (cheap pipeline)") {
    for (b <- Seq(40, 60, 80, 100))
      assert(math.abs(t("LogAnalytics", "Jarvis", b) - 49.6) < 0.1, s"budget $b")
  }

  test("Log: Jarvis over All-SP in 40-100% (paper: 2.3x)") {
    for (b <- Seq(40, 60, 80, 100)) {
      val r = t("LogAnalytics", "Jarvis", b) / t("LogAnalytics", "All-SP", b)
      assert(r >= 2.0, s"budget $b: ratio=$r")
    }
  }

  test("Log: Jarvis over the best baseline at 20% (paper: 1.5x over Best-OP/LB-DP)") {
    val best = Seq("All-SP", "All-Src", "Filter-Src", "Best-OP", "LB-DP")
      .map(t("LogAnalytics", _, 20)).max
    val r = t("LogAnalytics", "Jarvis", 20) / best
    info(f"measured ratio: $r%.2f (paper: 1.5)")
    assert(r >= 1.0 - 1e-6, s"ratio=$r")
  }

  // ---------------- Fig. 3 companion ----------------

  test("Fig. 3: data-level partitioning cuts network traffic vs operator-level (paper: 2.4x)") {
    val rows = Exp1Throughput.fig3()
    val op = rows.find(_.scheme.contains("operator")).get
    val dl = rows.find(_.scheme.contains("data-level")).get
    val factor = op.netMbps / dl.netMbps
    info(f"operator-level ${op.netMbps}%.1f Mbps vs data-level ${dl.netMbps}%.1f Mbps " +
      f"(${factor}%.1fx; paper: 22.5 vs 9.4, 2.4x)")
    assert(factor >= 1.8, s"factor=$factor")
    assert(dl.grProcessedPct > 60.0, s"G+R processed ${dl.grProcessedPct}% (paper: 83%)")
  }

  test("input rates match the paper's scaled workloads") {
    assert(math.abs(setups(0).inputMbps - 26.2) < 1e-9)
    assert(math.abs(setups(2).inputMbps - 49.6) < 1e-9)
    assert(math.abs(setups(0).bandwidthMbps - Calibration.PerSourceBandwidthMbps) < 1e-9)
  }
}
