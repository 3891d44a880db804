package repro.exp

import repro.core.model.{Calibration, QuerySpec}
import repro.core.strategy.PartitionStrategy
import repro.sim.ClusterSim
import repro.sim.ClusterSim.ThroughputResult

/** T1 (paper Fig. 7): single-source query throughput over varying CPU
  * budgets for all six partitioning strategies, on the three evaluated
  * queries. Also reproduces the Fig. 3 operator- vs data-level network
  * traffic comparison at an 80 % budget.
  */
object Exp1Throughput {

  val Budgets: Vector[Int] = Vector(20, 40, 60, 80, 100)

  final case class QuerySetup(spec: QuerySpec, inputMbps: Double, bandwidthMbps: Double)

  def setups: Vector[QuerySetup] = Vector(
    QuerySetup(Calibration.s2sProbe, Calibration.PingmeshMbps, Calibration.PerSourceBandwidthMbps),
    QuerySetup(Calibration.t2tProbe(), Calibration.PingmeshMbps, Calibration.PerSourceBandwidthMbps),
    QuerySetup(Calibration.logAnalytics, Calibration.LogMbps, Calibration.PerSourceBandwidthMbps),
  )

  def run(setup: QuerySetup): Vector[ThroughputResult] =
    for {
      budget <- Budgets
      strategy <- PartitionStrategy.all
    } yield ClusterSim.singleSourceThroughput(
      setup.spec, strategy, budget, setup.inputMbps, setup.bandwidthMbps)

  def resultFor(rows: Vector[ThroughputResult], strategy: String, budget: Int): ThroughputResult =
    rows.find(r => r.strategy == strategy && r.budgetPct == budget)
      .getOrElse(throw new NoSuchElementException(s"$strategy@$budget"))

  def table(setup: QuerySetup): (Seq[String], Seq[Seq[String]]) = {
    val rows = run(setup)
    val headers = Seq("budget%") ++ PartitionStrategy.all.map(_.name + " Mbps")
    val body = Budgets.map { b =>
      b.toString +: PartitionStrategy.all.map(s => Tab.f1(resultFor(rows, s.name, b).throughputMbps))
    }
    (headers, body)
  }

  /** Fig. 3 companion: network traffic and G+R coverage of operator- vs
    * data-level partitioning on S2SProbe at an 80 % budget.
    */
  final case class Fig3Row(scheme: String, netMbps: Double, grProcessedPct: Double)

  def fig3(): Vector[Fig3Row] = {
    val s = setups(0)
    val opLevel = ClusterSim.singleSourceThroughput(
      s.spec, PartitionStrategy.BestOp, 80, s.inputMbps, s.bandwidthMbps)
    val dataLevel = ClusterSim.singleSourceThroughput(
      s.spec, PartitionStrategy.Jarvis, 80, s.inputMbps, s.bandwidthMbps)
    def grPct(e: Vector[Double]): Double = if (e(0) <= 0) 0.0 else 100.0 * e(1) / e(0)
    Vector(
      Fig3Row("operator-level (Best-OP)", opLevel.netMbps, grPct(opLevel.e)),
      Fig3Row("data-level (Jarvis)", dataLevel.netMbps, grPct(dataLevel.e)),
    )
  }

  def printAll(): Unit = {
    for (s <- setups) {
      val (h, rows) = table(s)
      Tab.print(s"T1 ${s.spec.name}: throughput vs CPU budget (input ${Tab.f1(s.inputMbps)} Mbps, " +
        s"bandwidth ${Tab.f1(s.bandwidthMbps)} Mbps)", h, rows)
    }
    Tab.print(
      "Fig. 3 companion: S2SProbe at 80% budget",
      Seq("scheme", "net Mbps", "G+R processed %"),
      fig3().map(r => Seq(r.scheme, Tab.f1(r.netMbps), Tab.f1(r.grProcessedPct))),
    )
  }
}
