package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core.adapt.PipelineState
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, QuerySpec}

/** Tests for the epoch-level data-source simulator. */
class SourceNodeSimSpec extends AnyFunSuite {

  private def sim(budget: Double, noise: Double = 0.0) =
    new SourceNodeSim(Calibration.s2sProbe, budget, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = noise)

  test("zero load factors drain every input byte") {
    val obs = sim(1.0).runEpoch(Vector(0.0, 0.0))
    val inputBytes = Calibration.PingmeshRecsPerSec * Calibration.PingmeshRecBytes
    assert(math.abs(obs.drainedBytes - inputBytes) / inputBytes < 1e-9)
    assert(obs.cpuDemand == 0.0)
  }

  test("full local processing within budget drains nothing") {
    val obs = sim(1.0).runEpoch(Vector(1.0, 1.0))
    assert(obs.drainedBytes < obs.outputBytes) // only F-dropped records? none drained
    assert(math.abs(obs.cpuDemand - 0.85) < 0.01)
    obs.proxies.foreach(px => assert(px.forcedDrain < 1e-6))
  }

  test("filter-dropped records are not drained (they are consumed)") {
    val obs = sim(1.0).runEpoch(Vector(1.0, 1.0))
    assert(obs.drainedBytes == 0.0)
  }

  test("partial load factors drain the complement") {
    val obs = sim(1.0).runEpoch(Vector(1.0, 0.5))
    val n = Calibration.PingmeshRecsPerSec
    val expected = 0.5 * 0.86 * n * Calibration.PingmeshRecBytes
    assert(math.abs(obs.drainedBytes - expected) / expected < 1e-9)
  }

  test("over-subscription force-drains and degrades super-linearly") {
    val obs = sim(0.4).runEpoch(Vector(1.0, 1.0))
    assert(obs.cpuDemand > obs.cpuBudget)
    val p1 = obs.proxies(0)
    assert(p1.forcedDrain > 0)
    val scale = p1.processed / p1.intended
    val expected = math.pow(0.4 / 0.85, 1.0 + Calibration.OverloadAlpha)
    assert(math.abs(scale - expected) < 1e-9)
  }

  test("record conservation at every proxy") {
    for (p <- Seq(Vector(0.0, 0.0), Vector(1.0, 1.0), Vector(0.7, 0.3), Vector(1.0, 0.65))) {
      val obs = sim(0.6).runEpoch(p)
      obs.proxies.foreach { px =>
        assert(px.intended <= px.incoming + 1e-9)
        assert(px.processed <= px.intended + 1e-9)
      }
    }
  }

  test("downstream incoming equals upstream relay of processed records") {
    val obs = sim(1.0).runEpoch(Vector(0.8, 1.0))
    val expected = obs.proxies(0).processed * 0.86
    assert(math.abs(obs.proxies(1).incoming - expected) / expected < 1e-9)
  }

  test("output bytes are bounded by group count per window") {
    val obs = sim(1.0).runEpoch(Vector(1.0, 1.0))
    val cap = Calibration.S2SGroups.toDouble / Calibration.WindowEpochs * Calibration.S2SAggRecBytes
    assert(obs.outputBytes <= cap + 1e-6)
  }

  test("classification: p=0 with budget available is idle") {
    val obs = sim(0.5).runEpoch(Vector(0.0, 0.0))
    assert(PipelineState.classify(obs, Vector(0.0, 0.0)) == PipelineState.Idle)
  }

  test("classification: over-subscribed p=1 is congested") {
    val obs = sim(0.4).runEpoch(Vector(1.0, 1.0))
    assert(PipelineState.classify(obs, Vector(1.0, 1.0)) == PipelineState.Congested)
  }

  test("classification: matched plan is stable") {
    // 60% budget: F full + G+R on ~65% => demand ~0.598.
    val obs = sim(0.6).runEpoch(Vector(1.0, 0.65))
    assert(PipelineState.classify(obs, Vector(1.0, 0.65)) == PipelineState.Stable)
  }

  test("budget is mutable mid-run") {
    val s = sim(0.2)
    assert(s.runEpoch(Vector(1.0, 1.0)).cpuBudget == 0.2)
    s.budgetCores = 0.9
    assert(s.runEpoch(Vector(1.0, 1.0)).cpuBudget == 0.9)
  }

  test("spec is swappable but must keep operator count") {
    val s = new SourceNodeSim(Calibration.t2tProbe(50), 1.0, Calibration.PingmeshRecsPerSec)
    s.setSpec(Calibration.t2tProbe(500))
    assert(s.spec.ops(1).costSecPerRec > Calibration.t2tProbe(50).ops(1).costSecPerRec)
    intercept[IllegalArgumentException] { s.setSpec(Calibration.s2sProbe) }
  }

  // ------------------------------------------------------------------
  // Flow model on every calibrated query
  // ------------------------------------------------------------------

  /** Every non-increasing effective load-factor vector over a few levels,
    * All-SP and All-Src included.
    */
  private def eGrid(m: Int): Seq[Vector[Double]] = {
    val levels = Seq(1.0, 0.65, 0.3, 0.0)
    (1 until m).foldLeft(levels.map(Vector(_))) { (es, _) =>
      for (e <- es; x <- levels if x <= e.last) yield e :+ x
    }
  }

  /** (query, budget, e, observed epoch) over the calibrated queries, three
    * budgets from starved to a full core, and the e grid.
    */
  private val flowCases =
    for {
      q <- Seq(Calibration.s2sProbe, Calibration.t2tProbe(), Calibration.logAnalytics)
      budget <- Seq(0.05, 0.4, 1.0)
      e <- eGrid(q.numOps)
    } yield (q, budget, e,
      new SourceNodeSim(q, budget, q.inputRecsPerSec).runEpoch(LoadFactorLP.eToP(e)))

  private def label(q: QuerySpec, budget: Double, e: Vector[Double]) = s"${q.name}@$budget e=$e"

  test("flow conserves records at every proxy of every calibrated query") {
    for ((q, budget, e, obs) <- flowCases; px <- obs.proxies)
      assert(px.processed <= px.intended && px.intended <= px.incoming, s"${label(q, budget, e)}: $px")
  }

  test("flow: each proxy receives the upstream operator's output of the processed records") {
    for ((q, budget, e, obs) <- flowCases; i <- 1 until q.numOps)
      assert(obs.proxies(i).incoming == q.ops(i - 1).outRecsPerSec(obs.proxies(i - 1).processed),
        label(q, budget, e))
  }

  test("flow: drained bytes are the per-proxy drains at each operator's input size") {
    for ((q, budget, e, obs) <- flowCases) {
      val perProxy = obs.proxies.zip(q.ops).map { case (px, op) =>
        (px.incoming - px.processed) * op.bytesInPerRec
      }.sum
      assert(math.abs(obs.drainedBytes - perProxy) <= 1e-9 * math.max(perProxy, 1.0), label(q, budget, e))
    }
  }

  test("simulator and cluster model agree on demand and wire bytes") {
    for ((q, budget, e, obs) <- flowCases) {
      val perf = ClusterSim.sourcePerf(q, e, budget, q.inputRecsPerSec, drainsOverflow = true)
      assert(perf.cpuDemandCores == obs.cpuDemand, label(q, budget, e))
      assert(perf.netMbps == (obs.drainedBytes + obs.outputBytes) * 8 / 1e6, label(q, budget, e))
    }
  }

  // ------------------------------------------------------------------
  // Profiling
  // ------------------------------------------------------------------

  test("noise-free profiling recovers exact costs and relays") {
    val est = sim(1.0, noise = 0.0).runProfileEpoch()
    val q = Calibration.s2sProbe
    est.costs.zip(q.ops.map(_.costSecPerRec)).foreach { case (a, b) =>
      assert(math.abs(a - b) / b < 1e-9)
    }
    assert(math.abs(est.recRelays(0) - 0.86) < 1e-9)
  }

  test("profiling under-estimates expensive operators at low budget") {
    val q = Calibration.s2sProbe
    val est = sim(0.3, noise = 0.35).runProfileEpoch()
    val trueGr = q.ops(1).costSecPerRec
    assert(est.costs(1) < trueGr, s"est=${est.costs(1)} true=$trueGr")
  }

  test("profiling of a cheap operator is accurate even at low budget") {
    val q = Calibration.s2sProbe
    val est = sim(0.3, noise = 0.35).runProfileEpoch()
    val trueF = q.ops(0).costSecPerRec
    assert(math.abs(est.costs(0) - trueF) / trueF < 0.05)
  }

  test("profiling reports the true budget per record") {
    val est = sim(0.42).runProfileEpoch()
    assert(math.abs(est.budgetPerRec - 0.42 / Calibration.PingmeshRecsPerSec) < 1e-15)
  }

  test("profile noise is deterministic in the seed") {
    val a = new SourceNodeSim(Calibration.s2sProbe, 0.3, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = 0.35, seed = 9L).runProfileEpoch()
    val b = new SourceNodeSim(Calibration.s2sProbe, 0.3, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = 0.35, seed = 9L).runProfileEpoch()
    assert(a.costs == b.costs)
  }
}
