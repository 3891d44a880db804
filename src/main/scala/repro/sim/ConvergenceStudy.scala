package repro.sim

import repro.core.adapt.{JarvisRuntime, RuntimeConfig}
import repro.core.model.{OpKind, OperatorSpec, QuerySpec}

/** Exhaustive convergence-cost study over operator counts (paper §VI-C
  * "Impact of number of operators").
  *
  * Mirrors the paper's simulator: enumerate execution configurations
  * (per-operator cost shares, relay patterns, total demand vs. budget), run
  * the model-agnostic variant (`w/o LP-init`, i.e. fine-tuning from zero
  * load factors with no LP seed) without profiling estimation errors, and
  * measure the number of Adapt epochs to reach a stable plan. The three
  * change-detection epochs are excluded, as in the paper.
  */
object ConvergenceStudy {

  final case class StudyResult(
      numOps: Int,
      configs: Int,
      maxEpochs: Int,
      avgEpochs: Double,
      p95Epochs: Int,
      notConverged: Int,
  )

  /** Cost-share patterns: how the pipeline's total demand splits across
    * operators (front-/back-/middle-heavy and uniform).
    */
  private def sharePatterns(m: Int): Vector[Vector[Double]] = {
    def normalize(v: Vector[Double]) = { val s = v.sum; v.map(_ / s) }
    val uniform = Vector.fill(m)(1.0)
    val front = Vector.tabulate(m)(i => math.pow(2.0, (m - 1 - i).toDouble))
    val back = front.reverse
    val spikeMid = Vector.tabulate(m)(i => if (i == m / 2) 4.0 else 1.0)
    Vector(uniform, front, back, spikeMid).map(normalize)
  }

  /** Relay patterns: where in the chain the data reduction happens. */
  private def relayPatterns(m: Int): Vector[Vector[Double]] = {
    val lateReduce = Vector.tabulate(m)(i => if (i == m - 1) 0.1 else 0.9)
    val earlyReduce = Vector.tabulate(m)(i => if (i == 0) 0.3 else 0.9)
    val gradual = Vector.fill(m)(0.6)
    Vector(lateReduce, earlyReduce, gradual)
  }

  private val DemandRatios = Vector(0.6, 0.9, 1.2, 1.8, 2.7)

  private def makeSpec(shares: Vector[Double], relays: Vector[Double], totalDemand: Double,
                       rate: Double): QuerySpec = {
    val m = shares.length
    val recBytes = 100.0
    var upstream = 1.0 // record-relay product into op i
    val ops = Vector.tabulate(m) { i =>
      val intoOp = rate * upstream
      val op = OperatorSpec(
        name = s"Op$i",
        kind = if (relays(i) < 0.5) OpKind.Filter else OpKind.Map,
        costSecPerRec = totalDemand * shares(i) / math.max(intoOp, 1e-9),
        recRelay = relays(i),
        // Record-count relays carry the data reduction; wire size constant.
        bytesInPerRec = recBytes,
        bytesOutPerRec = recBytes,
      )
      upstream *= relays(i)
      op
    }
    QuerySpec(s"synthetic-$m", ops, recBytes, rate)
  }

  /** Run the study for one operator count; each run is cut at 120 epochs. */
  def run(m: Int): StudyResult = {
    val capEpochs = 120
    val rate = 10000.0
    val budget = 1.0
    var results = Vector.empty[Int]
    var notConverged = 0
    var configs = 0
    for {
      shares <- sharePatterns(m)
      relays <- relayPatterns(m)
      ratio <- DemandRatios
    } {
      configs += 1
      val spec = makeSpec(shares, relays, totalDemand = budget * ratio, rate = rate)
      val sim = new SourceNodeSim(spec, budgetCores = budget, inputRecsPerSec = rate,
        profileNoiseMag = 0.0, seed = 7L * configs)
      val rt = new JarvisRuntime(sim, RuntimeConfig.NoLpInit)
      var steps = 0
      while (rt.convergences.isEmpty && steps < capEpochs) { rt.step(); steps += 1 }
      rt.convergences.headOption match {
        case Some(epochs) => results :+= epochs
        case None         => notConverged += 1
      }
    }
    val sorted = results.sorted
    StudyResult(
      numOps = m,
      configs = configs,
      maxEpochs = if (sorted.nonEmpty) sorted.last else capEpochs,
      avgEpochs = if (sorted.nonEmpty) sorted.sum.toDouble / sorted.size else capEpochs.toDouble,
      p95Epochs = if (sorted.nonEmpty) sorted(math.min(sorted.size - 1, (sorted.size * 95) / 100)) else capEpochs,
      notConverged = notConverged,
    )
  }
}
