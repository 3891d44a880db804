package repro.core.adapt

import repro.core.model.Calibration.{DrainedThres, IdleThres}

/** Observation of one control proxy over one epoch.
  *
  * @param incoming  records that arrived at the proxy
  * @param intended  records the proxy forwarded to its local operator
  *                  (p × incoming)
  * @param processed records the local operator actually processed; the
  *                  difference `intended − processed` was force-drained to
  *                  keep the epoch's latency bound
  */
final case class ProxyObs(incoming: Double, intended: Double, processed: Double) {
  def forcedDrain: Double = math.max(0.0, intended - processed)
  /** Records that left for the SP: the planned drain plus the forced one. */
  def drained: Double = (incoming - intended) + (intended - processed)
}

/** Observation of the whole query pipeline over one epoch.
  *
  * @param proxies     per-proxy observations, in pipeline order
  * @param cpuDemand   CPU-seconds the plan asked for this epoch
  * @param cpuBudget   CPU-seconds available to the query this epoch
  * @param drainedBytes wire bytes drained (planned + forced)
  * @param outputBytes  wire bytes of final results emitted
  */
final case class EpochObs(
    proxies: Vector[ProxyObs],
    cpuDemand: Double,
    cpuBudget: Double,
    drainedBytes: Double,
    outputBytes: Double,
) {
  def utilization: Double = if (cpuBudget <= 0) 1.0 else cpuDemand / cpuBudget
}

/** Pipeline state at the end of an epoch (paper §IV-C). */
sealed trait PipelineState
object PipelineState {
  /** At least one operator drained more pending records than DrainedThres
    * tolerates — the plan over-subscribes the budget.
    */
  case object Congested extends PipelineState

  /** Spare budget beyond IdleThres while some load factor is below one —
    * the plan under-subscribes the budget.
    */
  case object Idle extends PipelineState

  /** Neither congested nor idle. */
  case object Stable extends PipelineState

  /** Classify an epoch observation (paper §IV-C: the plan is non-stable if
    * all operators are idle or at least one operator is congested), against
    * `Calibration.DrainedThres` (tolerated forced-drain fraction per proxy)
    * and `Calibration.IdleThres` (tolerated spare-budget fraction).
    *
    * @param obs the epoch observation
    * @param p   the load factors the epoch ran with
    */
  def classify(obs: EpochObs, p: Vector[Double]): PipelineState = {
    val congested = obs.proxies.exists { px =>
      px.intended > 1e-9 && px.forcedDrain / px.intended > DrainedThres
    }
    if (congested) Congested
    else if (obs.utilization < 1.0 - IdleThres && p.exists(_ < 1.0 - 1e-9)) Idle
    else Stable
  }
}
