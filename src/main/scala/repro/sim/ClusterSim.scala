package repro.sim

import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, QuerySpec}
import repro.core.strategy.PartitionStrategy

/** Steady-state performance of one data source under a partitioning plan. */
final case class SourcePerf(
    /** Wire Mbps leaving the source (drains + results). */
    netMbps: Double,
    /** CPU cores demanded by the plan at the offered rate. */
    cpuDemandCores: Double,
    /** Max input record rate the node itself can absorb (∞-like = offered
      * rate when a drain path exists).
      */
    processLimitRecsPerSec: Double,
    /** CPU-cores of *remaining* work the SP must run on this source's
      * drains to complete the query.
      */
    spDemandCores: Double,
    /** Effective load factors the plan ran with. */
    e: Vector[Double],
)

/** Steady-state throughput model for a core building block: N data sources
  * under one stream processor (paper Fig. 4b). Substitutes for the EC2
  * testbed — DESIGN.md §2.
  *
  * Throughput is the offered input rate clipped by (1) the node's own
  * processing limit when it has no drain path (All-Src), (2) the per-source
  * network share, (3) the SP link aggregate, and (4) SP compute. Latency is
  * an M/M/1-style queueing estimate over the most utilized resource with a
  * base epoch latency, reported against the paper's 5-second bound.
  */
object ClusterSim {

  /** Evaluate a plan `e` on one source at `inputRate` records/s. */
  def sourcePerf(
      q: QuerySpec,
      e: Vector[Double],
      budgetCores: Double,
      inputRate: Double,
      drainsOverflow: Boolean,
  ): SourcePerf = {
    val p = LoadFactorLP.eToP(e)
    val obs = q.flow(p, inputRate, budgetCores)

    if (!drainsOverflow) {
      // All-Src: unprocessable records backlog; sustained input = processed.
      val sustained = inputRate * Calibration.overloadScale(obs.cpuDemand, budgetCores)
      val outMbps = q.flow(p, sustained, Double.PositiveInfinity).outputBytes * 8 / 1e6
      return SourcePerf(outMbps, obs.cpuDemand, sustained, 0.0, e)
    }

    // Drain-capable: shortfall force-drains; all input leaves the node.
    // Remaining per-record SP cost from operator i to the end, accounting
    // for record relays along the rest of the chain.
    val remainingCost = q.ops.scanRight(0.0)((op, rest) => op.costSecPerRec + op.recRelay * rest)
    SourcePerf(
      netMbps = (obs.drainedBytes + obs.outputBytes) * 8 / 1e6,
      cpuDemandCores = obs.cpuDemand,
      processLimitRecsPerSec = inputRate,
      spDemandCores = obs.proxies.lazyZip(remainingCost).map(_.drained * _).sum,
      e = e,
    )
  }

  /** One row of the single-source throughput tables (T1 / Fig. 7). */
  final case class ThroughputResult(
      strategy: String,
      budgetPct: Int,
      throughputMbps: Double,
      netMbps: Double,
      cpuDemandCores: Double,
      e: Vector[Double],
  )

  /** Single data source, single SP (SP compute unconstrained — one query on
    * a 64-core m5a.16xlarge).
    */
  def singleSourceThroughput(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetPct: Int,
      inputMbps: Double,
      bandwidthMbps: Double,
  ): ThroughputResult = {
    val rate = q.recsPerSecFor(inputMbps)
    val budget = budgetPct / 100.0
    val e = strategy.effectiveLoadFactors(q, budget, rate)
    val perf = sourcePerf(q, e, budget, rate, strategy.drainsOverflow)
    val netLimited =
      if (perf.netMbps <= bandwidthMbps || perf.netMbps <= 0) inputMbps
      else inputMbps * bandwidthMbps / perf.netMbps
    val procLimited = q.mbps(perf.processLimitRecsPerSec)
    ThroughputResult(
      strategy.name,
      budgetPct,
      math.min(netLimited, procLimited),
      perf.netMbps,
      perf.cpuDemandCores,
      e,
    )
  }

  /** One row of the multi-source scaling tables (T5 / Fig. 10). */
  final case class ScalingResult(
      strategy: String,
      nSources: Int,
      aggThroughputMbps: Double,
      perSourceNetMbps: Double,
      linkUtilization: Double,
      medianLatencyMs: Double,
      maxLatencyMs: Double,
  )

  /** Base epoch-processing latency when nothing queues (serialization +
    * one micro-batch); calibrated to the paper's healthy-load median.
    */
  val BaseLatencySec: Double = 0.33

  def multiSourceThroughput(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetCores: Double,
      inputMbps: Double,
      nSources: Int,
  ): ScalingResult = {
    val rate = q.recsPerSecFor(inputMbps)
    val e = strategy.effectiveLoadFactors(q, budgetCores, rate)
    val perf = sourcePerf(q, e, budgetCores, rate, strategy.drainsOverflow)

    val netUtil = nSources * perf.netMbps / Calibration.PerQueryLinkMbps
    val spUtil = nSources * perf.spDemandCores / Calibration.SpCoresScaling
    val u = math.max(netUtil, spUtil)
    val perSourceIn = math.min(q.mbps(perf.processLimitRecsPerSec), inputMbps)
    val agg = nSources * perSourceIn * math.min(1.0, 1.0 / math.max(u, 1e-9))

    val (medianMs, maxMs) =
      if (u < 0.999) {
        val med = BaseLatencySec / (1.0 - u) * 1000.0
        (med, math.min(med * 3.0, 300e3))
      } else {
        // Saturated: backlog grows without bound; report the paper-style
        // ">60 s" sentinel.
        (60e3, 300e3)
      }
    ScalingResult(strategy.name, nSources, agg, perf.netMbps, netUtil, medianMs, maxMs)
  }

  /** Largest source count, up to 300, for which aggregate throughput still
    * scales linearly (within 2 % of N × input rate).
    */
  def maxSupportedSources(
      q: QuerySpec,
      strategy: PartitionStrategy,
      budgetCores: Double,
      inputMbps: Double,
  ): Int = {
    val (upTo, tolerance) = (300, 0.98)
    var best = 0
    for (n <- 1 to upTo) {
      val r = multiSourceThroughput(q, strategy, budgetCores, inputMbps, n)
      if (r.aggThroughputMbps >= tolerance * n * inputMbps) best = n
    }
    best
  }
}
