package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.adapt.{EpochExecutor, JarvisRuntime, Phase, PipelineState}
import repro.core.model.{OpKind, OperatorSpec, QuerySpec}
import repro.dataflow.{EpochSparkDriver, MonitoringData, Queries}
import repro.sim.Lcg

/** `epoch-loop`: one `JarvisRuntime` drives `EpochSparkDriver` in a closed
  * loop, the way Structured Streaming's default trigger waits for each
  * micro-batch. Each epoch is a pre-generated 5,000-record Pingmesh batch
  * (the rate of `StreamingDemoJob`) and its result is materialised with
  * `collect`. A scripted CPU budget alternates between a low and a high
  * level, so the runtime cycles through Probe, Profile and Adapt.
  *
  * Why: at this batch size fixed per-job and per-task Spark overhead
  * dominates, which is what decides whether an epoch fits in its 1 s.
  */
object EpochLoop {
  val Sources = 50
  val ProbesPerSourceEpoch = 100 // 50 × 100 = 5,000 records per epoch
  val Peers = 20
  val PoolBatches = 20
  val HalfCycleEpochs = 12
  /** Epochs every run completes; the control outputs are taken over them. */
  val PrefixEpochs = 40
  /** Startup and the first Probe epochs, left out of the timing samples
    * while the JIT warms up.
    */
  val WarmupEpochs = 4
  val SetupReps = 3

  /** `StreamingDemoJob`'s S2SProbe spec, scaled to 5,000 records/s: the
    * full pipeline demands ~0.85 cores, so budgets below that force a
    * partial data-level plan.
    */
  val StreamRate = 5000.0
  val streamSpec: QuerySpec = QuerySpec("S2SProbe-stream", Vector(
    OperatorSpec("F", OpKind.Filter, 0.13 / StreamRate, 0.86, 86, 86),
    OperatorSpec("G+R", OpKind.GroupReduce, 0.72 / (0.86 * StreamRate), 1.0, 86, 86,
      groupCount = 2000, windowEpochs = 10),
  ), 86, StreamRate)

  /** CPU budget per epoch: each cycle is `HalfCycleEpochs` at a low level
    * in [0.25, 0.35) cores, then as many at a high level in [0.8, 0.95).
    */
  final class Budgets(seed: Long) {
    private val rng = new Lcg(seed)
    private val levels = mutable.ArrayBuffer.empty[(Double, Double)]
    def apply(epoch: Int): Double = {
      val cycle = epoch / (2 * HalfCycleEpochs)
      while (levels.size <= cycle) levels += ((0.25 + 0.1 * rng.next(), 0.8 + 0.15 * rng.next()))
      val (low, high) = levels(cycle)
      if (epoch % (2 * HalfCycleEpochs) < HalfCycleEpochs) low else high
    }
  }

  /** One timed epoch: `runtime.step()` plus collecting its result. In a
    * traced loop `selfNs` is the step's time outside the executor.
    */
  final case class Sample(epoch: Int, phase: Phase, ns: Long, collectNs: Long, selfNs: Long, batch: Int,
                          result: Option[Collected], startMs: Long, endMs: Long)

  private def makePool(spark: SparkSession, seed: Long): Vector[DataFrame] = {
    val gen = MonitoringData.pingmesh(spark, Sources, Peers, PoolBatches, ProbesPerSourceEpoch, seed = seed)
    val rows = gen.collect()
    val byEpoch = rows.groupBy(_.getAs[Long]("ts") / MonitoringData.EpochMs).toVector.sortBy(_._1)
    byEpoch.map { case (_, rs) => spark.createDataFrame(java.util.Arrays.asList(rs: _*), gen.schema) }
  }

  /** A finished loop; `convergedInPrefix` sums the runtime's convergences
    * completed within the first `PrefixEpochs` epochs.
    */
  private final case class Loop(runtime: JarvisRuntime, samples: Vector[Sample],
                                timed: Option[TimedExecutor], convergedInPrefix: Int)

  /** Run epochs until `seconds` have passed and at least `minEpochs` ran.
    * With tracing on, the runtime drives a [[TimedExecutor]] and each epoch
    * is a span whose Spark jobs carry the epoch's tag.
    */
  private def loop(spark: SparkSession, pool: Vector[DataFrame], budgets: Budgets, seconds: Double,
                   minEpochs: Int, tracer: Tracer): Loop = {
    val traced = tracer ne Tracer.off
    val driver = new EpochSparkDriver(spark, streamSpec, k => pool(k % pool.size), budgets(0))
    val timed = if (traced) Some(new TimedExecutor(driver, tracer)) else None
    val runtime = new JarvisRuntime(timed.getOrElse(driver): EpochExecutor)
    val sc = spark.sparkContext
    val samples = Vector.newBuilder[Sample]
    var convergedInPrefix = 0
    val t0 = System.nanoTime()
    var k = 0
    while (k < minEpochs || Setup.elapsedS(t0) < seconds) {
      driver.budgetCores = budgets(k)
      timed.foreach(_.stepNs = 0L)
      if (traced) sc.setLocalProperty(SparkCounters.TagKey, s"epoch.$k")
      val startMs = System.currentTimeMillis()
      val epochSpan = tracer.begin("epoch")
      val s = System.nanoTime()
      val stepSpan = tracer.begin("runtime.step")
      val entry = runtime.step()
      tracer.end(stepSpan)
      val c = System.nanoTime()
      val result =
        if (entry.phase == Phase.Profile) None
        else {
          val collectSpan = tracer.begin("result.collect")
          val r = Collected.of(driver.lastResult.get)
          tracer.end(collectSpan)
          Some(r)
        }
      val e = System.nanoTime()
      tracer.end(epochSpan)
      samples += Sample(k, entry.phase, e - s, e - c, timed.fold(0L)(t => c - s - t.stepNs),
        (driver.currentEpoch - 1) % pool.size, result, startMs, System.currentTimeMillis())
      k += 1
      if (k == PrefixEpochs) convergedInPrefix = runtime.convergences.sum
    }
    if (traced) sc.setLocalProperty(SparkCounters.TagKey, null)
    Loop(runtime, samples.result(), timed, convergedInPrefix)
  }

  def run(args: Args, report: Report, stamp: Stamp): Unit = {
    val ((spark, pool), setupS) = Setup.repeat(if (args.trace) 1 else SetupReps) {
      val spark = Setup.session("perfbench-epoch-loop", stamp)
      (spark, makePool(spark, args.seed))
    }
    report.put("setup_s", setupS)
    stamp("input") = s"$PoolBatches pooled Pingmesh batches of ${Sources * ProbesPerSourceEpoch} records, " +
      s"$Sources sources x $Peers peers"
    stamp("epochs_min") = PrefixEpochs
    val budgets = new Budgets(args.seed)

    Setup.progress("set up")
    val main = loop(spark, pool, budgets, args.seconds, PrefixEpochs, Tracer.off)
    Setup.progress("timed loop done")
    val timedSamples = main.samples.drop(WarmupEpochs)
    report.put("warmup_s", main.samples.take(WarmupEpochs).map(_.ns / 1e9).sum)
    val ms = timedSamples.map(_.ns / 1e6)
    report.put("op_ms_p50", Stats.median(ms))
    report.put("op_ms_p75", Stats.quantile(ms, 0.75))
    val done = timedSamples.count(_.result.nonEmpty)
    report.put("rec_per_s", done * StreamRate / (timedSamples.map(_.ns).sum / 1e9))
    report.put("op.samples", ms.size)
    stamp("epochs_timed") = ms.size

    // Control-algorithm outputs over the fixed prefix: deterministic per seed.
    val prefix = main.runtime.log.take(PrefixEpochs)
    val obs = prefix.flatMap(_.obs)
    report.put("drained_bytes_per_rec", obs.map(_.drainedBytes).sum / obs.map(_.proxies.head.incoming).sum)
    report.put("adapt.converge_epochs", main.convergedInPrefix)
    report.put("adapt.profile_epochs", prefix.count(_.phase == Phase.Profile))
    report.put("lp.calls", prefix.count(_.phase == Phase.Profile))
    report.put("adapt.tuner_steps", prefix.count(e => e.phase == Phase.Adapt && e.state != PipelineState.Stable))

    var loops = Vector(main)
    if (args.trace) {
      val tracer = new Tracer()
      val counters = SparkCounters.install(spark.sparkContext, tracer)
      val traced = loop(spark, pool, new Budgets(args.seed), args.seconds / 2.0, 2 * HalfCycleEpochs, tracer)
      loops :+= traced
      reportTrace(report, ms, traced.samples.drop(WarmupEpochs), traced.timed.get, counters)
      tracer.write(args.outDir.resolve(s"trace-${args.runId}.jsonl"))
      report.put("trace.spans", tracer.size)
      report.put("trace.spans_dropped", tracer.dropped)
    }

    // Reference gates, outside the timed loop: every epoch's rows equal
    // Queries.s2sFull on the same batch, and every load factor is on the grid.
    val reference = mutable.HashMap.empty[Int, RowGate.Canon]
    def expected(b: Int) = reference.getOrElseUpdate(b, RowGate.canon(Collected.of(Queries.s2sFull(pool(b)))))
    for (l <- loops; s <- l.samples)
      report.op(s.result.flatMap(r => RowGate.check(RowGate.canon(r), expected(s.batch)).map(d => s"epoch ${s.epoch}: $d")))
    for (l <- loops; e <- l.runtime.log) GridGate.check(e.p).foreach(report.fail)
  }

  private def reportTrace(report: Report, untracedMs: Vector[Double], traced: Vector[Sample],
                          timed: TimedExecutor, counters: SparkCounters): Unit = {
    val tracedMs = traced.map(_.ns / 1e6)
    report.put("trace.op_ms_p50_untraced", Stats.median(untracedMs))
    report.put("trace.op_ms_p50_traced", Stats.median(tracedMs))
    report.put("trace.overhead_ms", Stats.median(tracedMs) - Stats.median(untracedMs))
    report.put("driver.run_epoch_ms_p50", timed.runNs.quantileNs(0.5) / 1e6)
    report.put("driver.profile_epoch_ms_p50", timed.profileNs.quantileNs(0.5) / 1e6)
    report.put("adapt.step_self_us_p50", Stats.median(traced.map(_.selfNs / 1e3)))
    report.put("result.collect_ms_p50", Stats.median(traced.filter(_.result.nonEmpty).map(_.collectNs / 1e6)))
    val n = traced.size.toDouble
    val per = traced.map(s => s -> counters.get(s"epoch.${s.epoch}"))
    report.put("spark.jobs_per_epoch", per.map(_._2.jobs).sum / n)
    report.put("spark.stages_per_epoch", per.map(_._2.stages).sum / n)
    report.put("spark.tasks_per_epoch", per.map(_._2.tasks).sum / n)
    report.put("spark.nonempty_task_ratio", per.map(_._2.nonEmptyTasks).sum.toDouble / math.max(1L, per.map(_._2.tasks).sum))
    report.put("spark.shuffle_bytes_per_epoch", per.map(_._2.shuffleBytes).sum / n)
    report.put("spark.task_run_ms_per_epoch", per.map(_._2.taskRunMs).sum / n)
    report.put("spark.task_cpu_ms_per_epoch", per.map(_._2.taskCpuNs).sum / 1e6 / n)
    report.put("spark.driver_only_ms_p50", Stats.median(per.map { case (s, c) =>
      SparkCounters.uncovered(s.startMs, s.endMs, c.stageSpans.toSeq).toDouble }))
  }
}
