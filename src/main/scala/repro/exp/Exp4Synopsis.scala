package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.model.Calibration
import repro.core.strategy.PartitionStrategy
import repro.dataflow.{MonitoringData, Wsp}
import repro.sim.ClusterSim

/** T4 (paper Fig. 9): window-based sampling (WSP) accuracy/network trade-off
  * vs Jarvis' lossless partitioning. Sampling error and missed alerts are
  * measured on real Spark execution over the synthetic Pingmesh stream;
  * Jarvis' network transfer at 100 % / 20 % budgets comes from the
  * calibrated model, and its zero-error claim is enforced by the
  * PartitionedExec oracle tests.
  */
object Exp4Synopsis {

  val SamplingRates: Vector[Double] = Vector(0.2, 0.4, 0.6, 0.8)

  final case class JarvisRow(budgetPct: Int, netPctOfInput: Double)

  def jarvisRows: Vector[JarvisRow] =
    Vector(20, 100).map { b =>
      val r = ClusterSim.singleSourceThroughput(
        Calibration.s2sProbe, PartitionStrategy.Jarvis, b,
        Calibration.PingmeshMbps, Calibration.PerSourceBandwidthMbps)
      JarvisRow(b, 100.0 * r.netMbps / Calibration.PingmeshMbps)
    }

  /** Pingmesh-like fan-out: 12 probes per epoch over 20 peers gives ~6
    * probes per (src, dst) pair per 10-second window, matching the paper's
    * one-probe-per-pair-per-5s schedule. Sizing: 150 sources × 60
    * epochs × 12 probes = 108,000 records (about 9.3 MB at 86 B each).
    */
  def wspRows(spark: SparkSession): Vector[Wsp.SynopsisResult] = {
    val pings = MonitoringData.pingmesh(spark, nSources = 150, nPeers = 20, nEpochs = 60,
      probesPerEpoch = 12, anomalyPairRate = 0.02).cache()
    try SamplingRates.map(r => Wsp.evaluate(pings, r))
    finally pings.unpersist()
  }

  def printAll(spark: SparkSession): Unit = {
    val rows = wspRows(spark)
    Tab.print(
      "T4a: WSP sampling accuracy (range error over pair-windows) and network cost",
      Seq("sampling", "err<=1ms %", "err>5ms %", "missed alerts %", "net % of input",
        "true alerts", "pair-windows"),
      rows.map(r => Seq(Tab.f1(r.samplingRate), Tab.f1(r.errLe1msPct), Tab.f1(r.errGt5msPct),
        Tab.f1(r.missedAlertPct), Tab.f1(r.netPctOfInput),
        r.trueAlerts.toString, r.pairWindows.toString)),
    )
    Tab.print(
      "T4b: Jarvis network transfer (lossless; error = 0, missed alerts = 0)",
      Seq("budget %", "net % of input"),
      jarvisRows.map(r => Seq(r.budgetPct.toString, Tab.f1(r.netPctOfInput))),
    )
  }
}
