package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.adapt._
import repro.core.model.{Calibration, QuerySpec}
import repro.sim.SourceNodeSim

/** State-machine and end-to-end control-loop tests for the Jarvis runtime
  * (paper Fig. 6) over the data-source simulator.
  */
class JarvisRuntimeSpec extends AnyFunSuite {
  import JarvisRuntimeSpec._

  private def s2sSim(budget: Double, noise: Double = 0.0) =
    new SourceNodeSim(Calibration.s2sProbe, budget, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = noise)

  // ------------------------------------------------------------------
  // Phase transitions
  // ------------------------------------------------------------------

  test("startup runs with zero load factors") {
    val rt = new JarvisRuntime(s2sSim(0.5))
    val entry = rt.step()
    assert(entry.phase == Phase.Startup)
    assert(entry.p.forall(_ == 0.0))
  }

  test("probe triggers profiling only after 3 consecutive non-stable epochs") {
    val rt = new JarvisRuntime(s2sSim(0.5))
    rt.step() // startup
    rt.step(); rt.step()
    assert(rt.currentPhase == Phase.Probe)
    rt.step() // third non-stable probe epoch
    assert(rt.currentPhase == Phase.Profile)
  }

  test("profile consumes one epoch and seeds the LP plan") {
    val rt = new JarvisRuntime(s2sSim(1.0))
    rt.run(4) // startup + 3 probes (idle at p=0)
    val entry = rt.step()
    assert(entry.phase == Phase.Profile)
    // Ample budget: the LP runs the whole pipeline locally.
    assert(rt.loadFactors.forall(_ > 0.9), s"p=${rt.loadFactors}")
  }

  test("w/o LP-init resets load factors to zero at adaptation start") {
    val rt = new JarvisRuntime(s2sSim(1.0), RuntimeConfig.NoLpInit)
    rt.run(4)
    val entry = rt.step()
    assert(entry.phase == Phase.Profile)
    assert(rt.loadFactors.forall(_ == 0.0))
  }

  test("a stable epoch resets the detection streak") {
    // Budget exactly matches a p = 1 plan: after converging the probe phase
    // stays stable and never re-triggers profiling.
    val rt = new JarvisRuntime(s2sSim(0.9))
    rt.run(20)
    val log = rt.log
    val profiles = log.count(_.phase == Phase.Profile)
    assert(profiles == 1, s"expected exactly one adaptation, got $profiles")
  }

  // ------------------------------------------------------------------
  // Convergence end-to-end
  // ------------------------------------------------------------------

  test("converges to a stable full-local plan at 100% budget") {
    val rt = new JarvisRuntime(s2sSim(1.0))
    rt.run(12)
    assert(rt.convergences.nonEmpty, "never converged")
    assert(rt.loadFactors.forall(_ > 0.95), s"p=${rt.loadFactors}")
  }

  test("converges to a partial plan at 60% budget within the paper's bound") {
    val rt = new JarvisRuntime(s2sSim(0.6))
    rt.run(20)
    assert(rt.convergences.nonEmpty, "never converged")
    // Paper §IV-E: up to seven seconds (epochs) to stabilize.
    assert(rt.convergences.head <= 7, s"took ${rt.convergences.head} adapt epochs")
    // The converged plan respects the budget.
    val sim = s2sSim(0.6)
    val obs = sim.runEpoch(rt.loadFactors)
    assert(obs.cpuDemand <= obs.cpuBudget * 1.02, s"demand=${obs.cpuDemand}")
  }

  test("converged plan at 60% budget is the LP's full-pipeline fraction") {
    val rt = new JarvisRuntime(s2sSim(0.6))
    rt.run(20)
    // LP optimum: whole pipeline on ~70% of records (see LoadFactorLPSpec).
    assert(rt.loadFactors(0) > 0.6 && rt.loadFactors(0) < 0.8, s"p=${rt.loadFactors}")
    assert(rt.loadFactors(1) > 0.95, s"p=${rt.loadFactors}")
  }

  test("budget increase re-triggers adaptation and re-converges") {
    val sim = s2sSim(0.10)
    val rt = new JarvisRuntime(sim)
    rt.run(12)
    val firstConv = rt.convergences.size
    sim.budgetCores = 0.90
    rt.run(14)
    assert(rt.convergences.size > firstConv, "no re-adaptation after budget change")
    assert(rt.loadFactors.forall(_ > 0.9), s"p=${rt.loadFactors}")
  }

  test("budget drop re-triggers adaptation and the new plan fits") {
    val sim = s2sSim(0.90)
    val rt = new JarvisRuntime(sim)
    rt.run(12)
    sim.budgetCores = 0.60
    rt.run(16)
    val obs = sim.runEpoch(rt.loadFactors)
    assert(obs.cpuDemand <= obs.cpuBudget * 1.02,
      s"plan over-subscribes after drop: ${obs.cpuDemand} vs ${obs.cpuBudget}")
    // The plan is interior: some, but not all, of the stream stays local.
    assert(rt.loadFactors.exists(_ < 1.0 - 1e-9), s"p=${rt.loadFactors}")
    assert(obs.cpuDemand > obs.cpuBudget * 0.8, s"budget underused: ${obs.cpuDemand}")
  }

  test("LP-only with noisy profiling fails to stabilize after a budget drop") {
    val sim = new SourceNodeSim(Calibration.s2sProbe, 0.90, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = 0.35)
    val rt = new JarvisRuntime(sim, RuntimeConfig.LpOnly)
    rt.run(12)
    sim.budgetCores = 0.60
    rt.run(20)
    // The second adaptation must not have completed (paper §VI-C).
    assert(rt.convergences.size <= 1,
      s"LP-only unexpectedly stabilized: ${rt.convergences}")
  }

  test("Jarvis with noisy profiling still stabilizes after a budget drop") {
    val sim = new SourceNodeSim(Calibration.s2sProbe, 0.90, Calibration.PingmeshRecsPerSec,
      profileNoiseMag = 0.35)
    val rt = new JarvisRuntime(sim)
    rt.run(12)
    sim.budgetCores = 0.60
    rt.run(20)
    assert(rt.convergences.size == 2, s"convergences=${rt.convergences}")
  }

  // ------------------------------------------------------------------
  // Replay: the runtime decides from what its executor returned
  // ------------------------------------------------------------------

  /** Forwards every call to `inner` and records it, in order. */
  private final class Recording(inner: EpochExecutor) extends EpochExecutor {
    val calls = collection.mutable.ArrayBuffer.empty[Call]
    def numOps: Int = inner.numOps
    def runEpoch(p: Vector[Double]): EpochObs = {
      val obs = inner.runEpoch(p); calls += Ran(p, obs); obs
    }
    def runProfileEpoch(): ProfileEstimates = {
      val est = inner.runProfileEpoch(); calls += Profiled(est); est
    }
    def observedByteRelays: Vector[Double] = {
      val r = inner.observedByteRelays; calls += Relays(r); r
    }
  }

  /** Returns recorded results in order; each call must be the recorded one. */
  private final class Replaying(val numOps: Int, calls: Seq[Call]) extends EpochExecutor {
    private val next = calls.iterator
    def exhausted: Boolean = !next.hasNext
    def runEpoch(p: Vector[Double]): EpochObs = next.next() match {
      case Ran(q, obs) => assert(p == q, "requested p differs from the recorded run"); obs
      case c           => fail(s"runEpoch($p) where the recording has $c")
    }
    def runProfileEpoch(): ProfileEstimates = next.next() match {
      case Profiled(est) => est
      case c             => fail(s"runProfileEpoch() where the recording has $c")
    }
    def observedByteRelays: Vector[Double] = next.next() match {
      case Relays(r) => r
      case c         => fail(s"observedByteRelays where the recording has $c")
    }
  }

  test("the runtime asks its executor nothing before its first step") {
    val rec = new Recording(s2sSim(0.5))
    new JarvisRuntime(rec)
    assert(rec.calls.isEmpty, s"calls=${rec.calls}")
  }

  test("control decisions are a pure function of what the executor returned") {
    def budget(b: Double): SourceNodeSim => Unit = _.budgetCores = b
    def rate(r: Double): SourceNodeSim => Unit = _.inputRecsPerSec = r
    def spec(q: QuerySpec): SourceNodeSim => Unit = _.setSpec(q)
    val pings = Calibration.PingmeshRecsPerSec
    val logs = Calibration.LogRecsPerSec
    val scenarios = Seq(
      (Calibration.s2sProbe, 0.9, pings, Map(15 -> budget(0.5), 30 -> rate(1.4 * pings), 45 -> budget(0.75))),
      (Calibration.logAnalytics, 0.25, logs, Map(15 -> budget(0.15), 30 -> rate(1.5 * logs), 45 -> budget(0.3))),
      (Calibration.t2tProbe(), 0.8, pings, Map(20 -> spec(Calibration.t2tProbe(1000)), 35 -> budget(0.5))),
    )
    val epochs = 60
    for ((q, b, r, changes) <- scenarios;
         config <- Seq(RuntimeConfig.Jarvis, RuntimeConfig.LpOnly, RuntimeConfig.NoLpInit)) {
      val what = s"${q.name} $config"
      val sim = new SourceNodeSim(q, b, r, profileNoiseMag = 0.35)
      val rec = new Recording(sim)
      val live = new JarvisRuntime(rec, config)
      for (k <- 0 until epochs) {
        changes.get(k).foreach(_(sim))
        live.step()
      }
      val profiles = rec.calls.count(_.isInstanceOf[Profiled])
      // With fine-tuning, every change above re-adapts.
      assert(profiles >= (if (config.fineTune) 3 else 1), s"$what: $profiles Profile epochs")
      val replay = new Replaying(sim.numOps, rec.calls.toVector)
      val again = new JarvisRuntime(replay, config)
      again.run(epochs)
      assert(replay.exhausted, s"$what: the replay left recorded calls unmade")
      assert(again.log == live.log, what)
      assert(again.convergences == live.convergences, what)
    }
  }

  // ------------------------------------------------------------------
  // Classification thresholds (anti-oscillation, §IV-C)
  // ------------------------------------------------------------------

  test("mild under-utilization within IdleThres is stable") {
    val obs = EpochObs(Vector(ProxyObs(100, 50, 50)), cpuDemand = 0.95, cpuBudget = 1.0,
      drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(0.5)) == PipelineState.Stable)
  }

  test("under-utilization beyond IdleThres with p < 1 is idle") {
    val obs = EpochObs(Vector(ProxyObs(100, 50, 50)), cpuDemand = 0.5, cpuBudget = 1.0,
      drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(0.5)) == PipelineState.Idle)
  }

  test("under-utilization with all p = 1 is stable (nothing to raise)") {
    val obs = EpochObs(Vector(ProxyObs(100, 100, 100)), cpuDemand = 0.2, cpuBudget = 1.0,
      drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(1.0)) == PipelineState.Stable)
  }

  test("forced drains within DrainedThres are tolerated") {
    val obs = EpochObs(Vector(ProxyObs(100, 100, 97)), cpuDemand = 1.0, cpuBudget = 1.0,
      drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(1.0)) == PipelineState.Stable)
  }

  test("forced drains beyond DrainedThres are congested") {
    val obs = EpochObs(Vector(ProxyObs(100, 100, 80)), cpuDemand = 1.2, cpuBudget = 1.0,
      drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(1.0)) == PipelineState.Congested)
  }

  test("congestion on any proxy dominates idleness elsewhere") {
    val obs = EpochObs(Vector(ProxyObs(100, 10, 10), ProxyObs(10, 10, 5)),
      cpuDemand = 0.3, cpuBudget = 1.0, drainedBytes = 0, outputBytes = 0)
    assert(PipelineState.classify(obs, Vector(0.1, 1.0)) == PipelineState.Congested)
  }

  // ------------------------------------------------------------------
  // Fuzz: random resource and workload trajectories
  // ------------------------------------------------------------------

  private def withCostScale(q: QuerySpec): Gen[QuerySpec] =
    Gen.choose(0.25, 4.0).map(k => q.copy(ops = q.ops.map(op => op.copy(costSecPerRec = op.costSecPerRec * k))))

  /** A start spec, budget, rate (a multiple of `base`'s) and profile noise,
    * then what changes before each of 120 epochs: mostly nothing, else the
    * budget, the rate or the spec.
    */
  private def trajectory(base: QuerySpec, specs: Gen[QuerySpec]) = {
    val budget = Gen.frequency(1 -> Gen.const(0.0), 8 -> Gen.choose(0.0, 1.5))
    val rate = Gen.frequency(1 -> Gen.const(0.0), 8 -> Gen.choose(0.0, 2.0))
    val change = Gen.frequency[SourceNodeSim => Unit](
      12 -> Gen.const(_ => ()),
      1 -> budget.map(b => _.budgetCores = b),
      1 -> rate.map(r => _.inputRecsPerSec = r * base.inputRecsPerSec),
      1 -> specs.map(q => _.setSpec(q)),
    )
    for {
      q <- specs
      b <- budget
      r <- rate
      noise <- Gen.choose(0.0, 0.5)
      changes <- Gen.listOfN(120, change)
    } yield (new SourceNodeSim(q, b, r * base.inputRecsPerSec, noise), changes)
  }

  test("fuzz: random budget, rate and spec trajectories never throw and keep p on the grid") {
    val queries = Seq(
      Calibration.s2sProbe -> withCostScale(Calibration.s2sProbe),
      Calibration.t2tProbe() -> Gen.choose(50L, 1000L).map(Calibration.t2tProbe),
      Calibration.logAnalytics -> withCostScale(Calibration.logAnalytics),
      Calibration.logP95.proxied -> withCostScale(Calibration.logP95.proxied),
    )
    val grid = Calibration.LoadFactorGrid
    def onGrid(x: Double): Boolean = x >= 0 && x <= 1 && math.abs(x * grid - math.round(x * grid)) < 1e-9
    for (((base, specs), qi) <- queries.zipWithIndex;
         (sim, changes) <- PropHelpers.samples(trajectory(base, specs), 60, seed = 900L + 100 * qi)) {
      val rt = new JarvisRuntime(sim)
      for (change <- changes) {
        change(sim)
        val entry = rt.step()
        assert(entry.p.length == base.numOps && entry.p.forall(onGrid),
          s"${base.name} epoch ${entry.epoch}: p=${entry.p}, ${entry.obs}")
      }
    }
  }

  // ------------------------------------------------------------------
  // Overhead (paper §VI-B: runtime consumes <1% of a core)
  // ------------------------------------------------------------------

  test("a control-loop step is computationally trivial") {
    val rt = new JarvisRuntime(s2sSim(0.6))
    val t0 = System.nanoTime()
    rt.run(30)
    val perEpochMs = (System.nanoTime() - t0) / 1e6 / 30
    // Generous bound: even with the simulator in the loop, far below 1% of
    // a 1-second epoch.
    assert(perEpochMs < 10.0, s"step took $perEpochMs ms")
  }
}

object JarvisRuntimeSpec {
  /** One executor call and what it returned. */
  private sealed trait Call
  private final case class Ran(p: Vector[Double], obs: EpochObs) extends Call
  private final case class Profiled(est: ProfileEstimates) extends Call
  private final case class Relays(byteRelays: Vector[Double]) extends Call
}
