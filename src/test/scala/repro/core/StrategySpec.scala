package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.lp.LoadFactorLP
import repro.core.model.Calibration
import repro.core.strategy.PartitionStrategy
import repro.core.strategy.PartitionStrategy._

/** Tests for the partitioning policies the paper compares (§VI-A). */
class StrategySpec extends AnyFunSuite {

  private val s2s = Calibration.s2sProbe
  private val t2t = Calibration.t2tProbe()
  private val log = Calibration.logAnalytics
  private val rateS2s = s2s.inputRecsPerSec
  private val rateLog = log.inputRecsPerSec

  test("All-SP offloads everything") {
    assert(AllSp.effectiveLoadFactors(s2s, 0.5, rateS2s).forall(_ == 0.0))
  }

  test("All-Src keeps everything and has no drain path") {
    assert(AllSrc.effectiveLoadFactors(s2s, 0.1, rateS2s).forall(_ == 1.0))
    assert(!AllSrc.drainsOverflow)
  }

  test("Filter-Src runs exactly the leading filter prefix") {
    assert(FilterSrc.effectiveLoadFactors(s2s, 0.5, rateS2s) == Vector(1.0, 0.0))
    assert(FilterSrc.effectiveLoadFactors(t2t, 0.5, rateS2s) == Vector(1.0, 0.0, 0.0))
    assert(FilterSrc.effectiveLoadFactors(log, 0.5, rateLog) == Vector(1.0, 0.0, 0.0))
  }

  test("Best-OP on S2S runs only F below 85% budget") {
    assert(BestOp.effectiveLoadFactors(s2s, 0.80, rateS2s) == Vector(1.0, 0.0))
    assert(BestOp.effectiveLoadFactors(s2s, 0.60, rateS2s) == Vector(1.0, 0.0))
  }

  test("Best-OP on S2S runs everything at 85%+ budget") {
    assert(BestOp.effectiveLoadFactors(s2s, 0.86, rateS2s) == Vector(1.0, 1.0))
    assert(BestOp.effectiveLoadFactors(s2s, 1.0, rateS2s) == Vector(1.0, 1.0))
  }

  test("Best-OP on T2T can never place the join (F+J exceeds a core)") {
    assert(BestOp.effectiveLoadFactors(t2t, 1.0, rateS2s) == Vector(1.0, 0.0, 0.0))
  }

  test("Best-OP runs nothing when even F does not fit") {
    assert(BestOp.effectiveLoadFactors(s2s, 0.05, rateS2s) == Vector(0.0, 0.0))
  }

  test("Best-OP on LogAnalytics places F and M at 25% budget") {
    // F 4% + M 17% = 21% <= 25% < 31% (full).
    assert(BestOp.effectiveLoadFactors(log, 0.25, rateLog) == Vector(1.0, 1.0, 0.0))
  }

  test("LB-DP splits the input proportional to compute") {
    val e = LbDp.effectiveLoadFactors(s2s, 0.425, rateS2s)
    // Full demand is 85%; half the budget processes half the stream.
    assert(e.forall(x => math.abs(x - 0.5) < 1e-6), s"e=$e")
  }

  test("LB-DP caps the fraction at one") {
    assert(LbDp.effectiveLoadFactors(s2s, 2.0, rateS2s).forall(_ == 1.0))
  }

  test("Jarvis plan always fits the budget") {
    for (budget <- Seq(0.1, 0.3, 0.5, 0.7, 0.9, 1.0); q <- Seq(s2s, t2t, log)) {
      val e = Jarvis.effectiveLoadFactors(q, budget, q.inputRecsPerSec)
      val cpu = planDemand(q, e, q.inputRecsPerSec)
      assert(cpu <= budget + 1e-9, s"${q.name}@$budget: demand=$cpu e=$e")
    }
  }

  test("Jarvis drains no more than any feasible baseline") {
    for (budget <- Seq(0.2, 0.4, 0.6, 0.8, 1.0); q <- Seq(s2s, t2t, log)) {
      val rate = q.inputRecsPerSec
      val jarvis = Jarvis.effectiveLoadFactors(q, budget, rate)
      val jDrain = planDrainBytes(q, jarvis, rate)
      for (s <- Seq[PartitionStrategy](AllSp, FilterSrc, BestOp, LbDp)) {
        val e = s.effectiveLoadFactors(q, budget, rate)
        if (planDemand(q, e, rate) <= budget + 1e-9) {
          val drain = planDrainBytes(q, e, rate)
          assert(jDrain <= drain + 1e-6,
            s"${q.name}@$budget: Jarvis drains $jDrain > ${s.name} $drain")
        }
      }
    }
  }

  test("Jarvis at full budget runs everything locally on S2S") {
    val e = Jarvis.effectiveLoadFactors(s2s, 1.0, rateS2s)
    assert(e.forall(_ > 0.99), s"e=$e")
  }

  test("strategy list covers the paper's six systems") {
    assert(PartitionStrategy.all.map(_.name).toSet ==
      Set("All-SP", "All-Src", "Filter-Src", "Best-OP", "LB-DP", "Jarvis"))
  }

  test("the flow model gives the reference demand and drains of every strategy's plan") {
    for (budget <- Seq(0.2, 0.4, 0.6, 0.8, 1.0); q <- Seq(s2s, t2t, log); s <- PartitionStrategy.all) {
      val rate = q.inputRecsPerSec
      val e = s.effectiveLoadFactors(q, budget, rate)
      val obs = q.flow(LoadFactorLP.eToP(e), rate, Double.PositiveInfinity)
      assert(obs.cpuDemand == planDemand(q, e, rate), s"${q.name}@$budget ${s.name}")
      assert(obs.drainedBytes == planDrainBytes(q, e, rate), s"${q.name}@$budget ${s.name}")
    }
  }

  // Helpers mirroring the simulator's flow arithmetic on intended plans.
  private def planDemand(q: repro.core.model.QuerySpec, e: Vector[Double], rate: Double): Double = {
    val p = LoadFactorLP.eToP(e)
    var in = rate; var d = 0.0
    for (i <- 0 until q.numOps) {
      val fwd = p(i) * in
      d += fwd * q.ops(i).costSecPerRec
      in = q.ops(i).outRecsPerSec(fwd)
    }
    d
  }

  private def planDrainBytes(q: repro.core.model.QuerySpec, e: Vector[Double], rate: Double): Double = {
    val p = LoadFactorLP.eToP(e)
    var in = rate; var drain = 0.0
    for (i <- 0 until q.numOps) {
      val fwd = p(i) * in
      drain += (in - fwd) * q.ops(i).bytesInPerRec
      in = q.ops(i).outRecsPerSec(fwd)
    }
    drain
  }
}
