package repro.core.adapt

import repro.core.lp.LoadFactorLP
import repro.core.model.Calibration.{DetectEpochs, LoadFactorGrid}

/** Cost/relay/budget estimates produced by a Profile epoch (paper §IV-C).
  *
  * @param costs        estimated CPU-seconds per record at each operator
  * @param recRelays    estimated record relay ratios
  * @param bytesAtOp    wire bytes per record at each operator's input
  * @param budgetPerRec estimated CPU budget per input record (C / N_r)
  */
final case class ProfileEstimates(
    costs: Vector[Double],
    recRelays: Vector[Double],
    bytesAtOp: Vector[Double],
    budgetPerRec: Double,
)

/** The environment a Jarvis runtime instance controls: one query instance on
  * one data source. Implemented by the fluid simulator
  * ([[repro.sim.SourceNodeSim]]) and by the Spark epoch driver
  * ([[repro.dataflow.EpochSparkDriver]]), which runs any partitioned chain.
  * Both observe an epoch as [[repro.core.model.QuerySpec.flow]]: the
  * simulator at its configured rate and relays, the driver at the batch's
  * record count and the relays that its proxies' record counters measured
  * in the one Spark job that computed the batch's result.
  */
trait EpochExecutor {
  /** Number of operators in the pipeline. */
  def numOps: Int

  /** Execute one epoch under load factors `p`; returns what the control
    * proxies observed.
    */
  def runEpoch(p: Vector[Double]): EpochObs

  /** Execute one profiling epoch: operators run one at a time on as many
    * records as the budget slice allows; estimates are noisy when the slice
    * is too small for an expensive operator (paper §VI-C). The epoch's
    * records still reach the output: the Spark driver computes its batch's
    * result under the all-drain plan and measures the relays in that run.
    */
  def runProfileEpoch(): ProfileEstimates

  /** Byte relay ratios that order fine-tuning priorities, read right after
    * each Profile epoch: the simulator's spec relays at its rate, or the
    * relays the Spark driver measured in that epoch.
    */
  def observedByteRelays: Vector[Double]
}

/** Operational phase of the runtime (paper Fig. 6). */
sealed trait Phase
object Phase {
  case object Startup extends Phase
  case object Probe extends Phase
  case object Profile extends Phase
  case object Adapt extends Phase
}

/** One epoch's log entry, for convergence accounting and tests. */
final case class EpochLog(
    epoch: Int,
    phase: Phase,
    state: PipelineState,
    p: Vector[Double],
    obs: Option[EpochObs],
)

/** Configuration of a runtime variant.
  *
  * @param lpInit   seed Adapt with the LP solution over Profile estimates
  *                 (false reproduces the paper's "w/o LP-init" baseline,
  *                 which resets load factors to zero)
  * @param fineTune iterate StepWise-Adapt fine-tuning (false reproduces the
  *                 paper's "LP only" baseline)
  */
final case class RuntimeConfig(lpInit: Boolean = true, fineTune: Boolean = true) {
  /** Load-factor grid of the fine-tuner (`Calibration.LoadFactorGrid`). */
  def grid: Int = LoadFactorGrid
}

object RuntimeConfig {
  val Jarvis: RuntimeConfig = RuntimeConfig()
  val LpOnly: RuntimeConfig = RuntimeConfig(fineTune = false)
  val NoLpInit: RuntimeConfig = RuntimeConfig(lpInit = false)
}

/** Decentralized per-source control loop (paper §IV-C, Fig. 6).
  *
  * Drives an [[EpochExecutor]] one epoch at a time:
  *
  *  - Startup: all load factors zero (everything drains to the SP).
  *  - Probe: classify each epoch; `DetectEpochs` consecutive non-stable
  *    epochs trigger adaptation (scheduling noise tolerance, §VI-C).
  *  - Profile: one epoch of per-operator cost/relay/budget estimation.
  *  - Adapt: seed load factors (LP over the estimates, or zero for the
  *    model-agnostic variant) and fine-tune each epoch until stable.
  */
final class JarvisRuntime(executor: EpochExecutor, config: RuntimeConfig = RuntimeConfig.Jarvis) {
  private val m = executor.numOps

  private var phase: Phase = Phase.Startup
  private var pVec: Vector[Double] = Vector.fill(m)(0.0)
  private var nonStableStreak = 0
  private var epochIdx = 0
  private var tuner: StepWiseAdapt = _ // set by adaptFrom, the only way into Adapt
  private var adaptEpochsCurrent = 0

  private val logBuf = Vector.newBuilder[EpochLog]
  /** Adapt-phase epoch counts of each completed adaptation (Profile epoch
    * excluded; the paper reports these as "convergence duration in epochs").
    */
  private val convBuf = Vector.newBuilder[Int]

  def loadFactors: Vector[Double] = pVec
  def currentPhase: Phase = phase
  def log: Vector[EpochLog] = logBuf.result()
  def convergences: Vector[Int] = convBuf.result()

  /** Snap load factors onto the fine-tuning grid: e rounds down, then each
    * p_i = e_i / e_(i-1) rounds to the nearest level, which may be up: LP
    * e = (0.45, 0.40) runs as p = (0.45, 0.9), that is e = (0.45, 0.405).
    */
  private def discretize(e: Vector[Double]): Vector[Double] = {
    val eg = e.map(x => math.floor(x * LoadFactorGrid) / LoadFactorGrid)
    LoadFactorLP.eToP(eg).map(x => math.round(x * LoadFactorGrid).toDouble / LoadFactorGrid)
  }

  /** Advance the control loop by one epoch: run the executor once, then
    * decide from what it returned. Returns this epoch's log entry.
    */
  def step(): EpochLog = {
    val entry =
      if (phase == Phase.Profile) adaptFrom(executor.runProfileEpoch(), executor.observedByteRelays)
      else {
        val obs = executor.runEpoch(pVec)
        decide(obs, PipelineState.classify(obs, pVec))
      }
    epochIdx += 1
    logBuf += entry
    entry
  }

  /** Profile's transition: seed Adapt from the estimates and restart the
    * fine-tuner on the byte relays.
    */
  private def adaptFrom(est: ProfileEstimates, byteRelays: Vector[Double]): EpochLog = {
    pVec =
      if (config.lpInit)
        discretize(LoadFactorLP.solve(est.costs, est.recRelays, est.bytesAtOp, est.budgetPerRec).e)
      else Vector.fill(m)(0.0)
    tuner = new StepWiseAdapt(byteRelays, LoadFactorGrid)
    adaptEpochsCurrent = 0
    phase = Phase.Adapt
    EpochLog(epochIdx, Phase.Profile, PipelineState.Stable, pVec, None)
  }

  /** The transition of Startup, Probe or Adapt on an epoch that ran under
    * `pVec`, observed as `obs` in state `st`. The detection streak is zero
    * whenever Probe is entered: only Probe counts it, and it resets it on
    * leaving.
    */
  private def decide(obs: EpochObs, st: PipelineState): EpochLog = {
    val ran = phase
    ran match {
      case Phase.Startup => phase = Phase.Probe
      case Phase.Probe =>
        nonStableStreak = if (st == PipelineState.Stable) 0 else nonStableStreak + 1
        if (nonStableStreak >= DetectEpochs) {
          phase = Phase.Profile
          nonStableStreak = 0
        }
      case _ => // Adapt; a Profile epoch goes to adaptFrom
        adaptEpochsCurrent += 1
        if (st == PipelineState.Stable) {
          convBuf += adaptEpochsCurrent
          phase = Phase.Probe
        } else if (config.fineTune) pVec = tuner.step(pVec, st, obs.utilization)
        // LP-only keeps its plan; if it is not stable it stays non-stable
        // (paper §VI-C: "inaccurate profiling prevents LP only from
        // stabilizing the query").
    }
    EpochLog(epochIdx, ran, st, pVec, Some(obs))
  }

  /** Run `n` epochs. */
  def run(n: Int): Vector[EpochLog] = Vector.fill(n)(step())
}
