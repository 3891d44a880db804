package repro.dataflow

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.adapt._
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, QuerySpec}

/** [[EpochExecutor]] backed by real Spark execution of any partitioned
  * [[PartitionedExec.Chain]], one micro-batch per epoch (the
  * Structured-Streaming mapping of DESIGN.md §2; `jobs/StreamingDemoJob`
  * runs the same function under `foreachBatch`).
  *
  * The runtime adapts the chain's control proxies: the operators its
  * §IV-B plan puts on the source, `chain.spec.proxied`. SP-only operators
  * run on the SP alone, and the records the source sends them are the
  * epoch's output. Every epoch, Profile included, runs one Spark plan: the
  * batch's partitioned result, collected once into [[lastResult]]. Its
  * lane counters give the rows entering each operator, N_0 … N_{M−1}. The
  * relays ρ_i = N_{i+1}/N_i of the proxied `u`-keeping stages, clamped to
  * [0,1], replace the spec's (a stage that saw no rows keeps the spec's
  * relay), and the proxies observe [[QuerySpec.flow]] over that measured
  * spec — the model the simulator runs. CPU is accounted with the
  * calibrated costs (a local[*] driver cannot throttle a fractional core —
  * documented substitution).
  *
  * @param chain the query Spark runs, with the costs, sizes and default
  *              relays of its operators
  */
final class EpochSparkDriver(
    spark: SparkSession,
    chain: PartitionedExec.Chain,
    batchFor: Int => DataFrame,
    var budgetCores: Double,
) extends EpochExecutor {

  /** S2SProbe with the costs, sizes and default relays of `querySpec`. */
  def this(spark: SparkSession, querySpec: QuerySpec, batchFor: Int => DataFrame, budgetCores: Double) =
    this(spark, PartitionedExec.s2sChain.copy(spec = querySpec), batchFor, budgetCores)

  private val proxied = chain.spec.proxied
  private var epoch = 0
  /** The last epoch's measured spec and rate; calibrated before the first. */
  private var measured: (QuerySpec, Double) = (proxied, proxied.inputRecsPerSec)
  private var lastResultDf: Option[DataFrame] = None
  private var lastBatchDf: Option[DataFrame] = None

  def numOps: Int = proxied.numOps
  def currentEpoch: Int = epoch
  /** The last epoch's result rows, held locally: reading them starts no job. */
  def lastResult: Option[DataFrame] = lastResultDf
  def lastBatch: Option[DataFrame] = lastBatchDf

  def observedByteRelays: Vector[Double] = {
    val (spec, rate) = measured
    spec.byteRelays(math.max(rate, 1.0))
  }

  /** Run the next batch's plan at load factors `p` once, keep its result,
    * and return the proxied spec with the relays measured in that run, and
    * N_0; that spec at N_0 per epoch becomes [[measured]]. The counters are
    * read from the run's own execution, not from an `Observation`, which
    * waits for the asynchronous listener bus. A measured relay above 1 (a
    * join that fans out) is clamped to 1: the model's relays are fractions,
    * and this is the one place measured relays enter it.
    */
  private def execute(p: Vector[Double]): (QuerySpec, Double) = {
    val batch = batchFor(epoch)
    epoch += 1
    val plan = PartitionedExec.global(batch, chain, LoadFactorLP.pToE(p))
    lastResultDf = Some(spark.createDataFrame(java.util.Arrays.asList(plan.collect(): _*), plan.schema))
    lastBatchDf = Some(batch)
    val n = PartitionedExec.operatorInputs(plan, chain).map(_.toDouble)
    val ops = proxied.ops.zipWithIndex.map { case (op, i) =>
      if (i < chain.stages.length && n(i) > 0) op.copy(recRelay = math.min(1.0, n(i + 1) / n(i))) else op
    }
    val spec = proxied.copy(ops = ops)
    measured = (spec, n(0) / Calibration.EpochSeconds)
    (spec, n(0))
  }

  def runEpoch(p: Vector[Double]): EpochObs = {
    val (spec, n0) = execute(p)
    spec.flow(p, n0, budgetCores * Calibration.EpochSeconds)
  }

  /** The batch runs Startup's all-drain plan; relays as measured in that
    * run, costs from calibration (true values — the Spark loop demonstrates
    * the control path, the noisy-profiling behaviour is studied in the
    * simulator).
    */
  def runProfileEpoch(): ProfileEstimates = {
    val (spec, n0) = execute(Vector.fill(numOps)(0.0))
    spec.estimates(n0 / Calibration.EpochSeconds, budgetCores)
  }
}
