package repro.core.adapt

import repro.core.lp.LoadFactorLP
import repro.core.model.Calibration.{DetectEpochs, DrainedThres, IdleThres, LoadFactorGrid}

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

  /** Byte relay ratios observable from proxy counters at negligible cost
    * (record counts in/out are free; CPU costs are not — those need the
    * Profile phase). Used only to order fine-tuning priorities.
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
  private var tuner = new StepWiseAdapt(executor.observedByteRelays, LoadFactorGrid)
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

  /** Snap load factors onto the fine-tuning grid, rounding e down so a
    * correct LP solution never over-subscribes from discretization alone.
    */
  private def discretize(e: Vector[Double]): Vector[Double] = {
    val eg = e.map(x => math.floor(x * LoadFactorGrid) / LoadFactorGrid)
    LoadFactorLP.eToP(eg).map(x => math.round(x * LoadFactorGrid).toDouble / LoadFactorGrid)
  }

  private def classify(obs: EpochObs): PipelineState =
    PipelineState.classify(obs, pVec, DrainedThres, IdleThres)

  /** Advance the control loop by one epoch. Returns this epoch's log entry. */
  def step(): EpochLog = {
    val entry = phase match {
      case Phase.Startup =>
        val obs = executor.runEpoch(pVec)
        phase = Phase.Probe
        nonStableStreak = 0
        EpochLog(epochIdx, Phase.Startup, classify(obs), pVec, Some(obs))

      case Phase.Probe =>
        val obs = executor.runEpoch(pVec)
        val st = classify(obs)
        if (st == PipelineState.Stable) nonStableStreak = 0
        else nonStableStreak += 1
        if (nonStableStreak >= DetectEpochs) {
          phase = Phase.Profile
          nonStableStreak = 0
        }
        EpochLog(epochIdx, Phase.Probe, st, pVec, Some(obs))

      case Phase.Profile =>
        val est = executor.runProfileEpoch()
        pVec =
          if (config.lpInit) {
            val sol = LoadFactorLP.solve(est.costs, est.recRelays, est.bytesAtOp, est.budgetPerRec)
            discretize(sol.e)
          } else Vector.fill(m)(0.0)
        tuner = new StepWiseAdapt(executor.observedByteRelays, LoadFactorGrid)
        adaptEpochsCurrent = 0
        phase = Phase.Adapt
        EpochLog(epochIdx, Phase.Profile, PipelineState.Stable, pVec, None)

      case Phase.Adapt =>
        val obs = executor.runEpoch(pVec)
        val st = classify(obs)
        adaptEpochsCurrent += 1
        if (st == PipelineState.Stable) {
          convBuf += adaptEpochsCurrent
          phase = Phase.Probe
          nonStableStreak = 0
        } else if (config.fineTune) {
          pVec = tuner.step(pVec, st, obs.utilization)
        }
        // LP-only keeps its plan; if it is not stable it stays non-stable
        // (paper §VI-C: "inaccurate profiling prevents LP only from
        // stabilizing the query").
        EpochLog(epochIdx, Phase.Adapt, st, pVec, Some(obs))
    }
    epochIdx += 1
    logBuf += entry
    entry
  }

  /** Run `n` epochs. */
  def run(n: Int): Vector[EpochLog] = Vector.fill(n)(step())
}
