package repro.perfbench

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, QuerySpec}
import repro.dataflow.{MonitoringData, PartitionedExec, Queries}

/** `plan-sweep`: a closed loop that runs one plan at a time over cached
  * inputs at the T4 scale (`Exp4Synopsis`: 150 sources × 20 peers, 12
  * probes per source and epoch, 60 epochs; as many log lines). Each sweep
  * runs `PartitionedExec.{s2s, t2t, log, s2sPerSource}` at three points —
  * `e0` (all to the stream processor), `lp` (the LP plan at a 60 % budget,
  * snapped down to the load-factor grid) and `e1` (all at the source) —
  * then the three unpartitioned `Queries.*Full` baselines.
  *
  * Why: per-record work (the `u` hash, regex parsing, the join, shuffle
  * bytes) is a large share of every plan and the control plane is absent.
  * It uses the same dataflow code as `epoch-loop` at a 20× larger input,
  * so a partition-sizing change that helps one and hurts the other shows.
  */
object PlanSweep {
  val Sources = 150
  val Peers = 20
  val Epochs = 60
  val ProbesPerSourceEpoch = 12
  val Tenants = 100
  val LinesPerSourceEpoch = 12
  /** Epochs of the small input the warm-up sweep runs on. */
  val WarmupEpochs = 2
  val LpBudgetCores = 0.6
  val SetupReps = 3

  final case class Inputs(pings: DataFrame, lines: DataFrame, tor: DataFrame, nPings: Long, nLines: Long)

  /** One plan of the sweep: `name` is `plan.<query>.<point>` or `full.<query>`. */
  final case class Plan(name: String, query: String, records: Long, build: () => DataFrame)

  private def inputs(spark: SparkSession, seed: Long, epochs: Int, report: Option[Report]): Inputs = {
    def timed[A](metric: String)(body: => A): A = {
      val t0 = System.nanoTime()
      val r = body
      report.foreach(_.put(metric, (System.nanoTime() - t0) / 1e6))
      r
    }
    val (pings, nPings) = timed("gen.pingmesh_ms") {
      val df = MonitoringData.pingmesh(spark, Sources, Peers, epochs, ProbesPerSourceEpoch, seed = seed).cache()
      (df, df.count())
    }
    val (lines, nLines) = timed("gen.loglines_ms") {
      val df = MonitoringData.logLines(spark, Sources, Tenants, epochs, LinesPerSourceEpoch, seed = seed + 1).cache()
      (df, df.count())
    }
    val tor = MonitoringData.torMap(spark, math.max(Sources, Peers)).cache()
    tor.count()
    Inputs(pings, lines, tor, nPings, nLines)
  }

  /** The LP plan at `LpBudgetCores`, in effective load factors snapped
    * down to the grid the runtime uses.
    */
  def lpPoint(spec: QuerySpec, rate: Double): Vector[Double] = {
    val prods = spec.recProducts(rate)
    val relays = Vector.tabulate(spec.numOps)(i => if (prods(i) <= 0) 0.0 else prods(i + 1) / prods(i))
    val sol = LoadFactorLP.solve(spec.ops.map(_.costSecPerRec), relays, spec.bytesAtOp, LpBudgetCores / rate)
    sol.e.map(x => math.floor(x * GridGate.Grid + 1e-9) / GridGate.Grid)
  }

  val specs: Map[String, (QuerySpec, Double)] = Map(
    "s2s" -> (Calibration.s2sProbe, Calibration.PingmeshRecsPerSec),
    "t2t" -> (Calibration.t2tProbe(), Calibration.PingmeshRecsPerSec),
    "log" -> (Calibration.logAnalytics, Calibration.LogRecsPerSec),
    "s2s_src" -> (Calibration.s2sProbe, Calibration.PingmeshRecsPerSec),
  )

  def points(query: String): Vector[(String, Vector[Double])] = {
    val (spec, rate) = specs(query)
    Vector("e0" -> Vector.fill(spec.numOps)(0.0), "lp" -> lpPoint(spec, rate), "e1" -> Vector.fill(spec.numOps)(1.0))
  }

  def plans(in: Inputs): Vector[Plan] = {
    val partitioned = for (q <- Metrics.Queries; (pt, e) <- points(q)) yield {
      val build: () => DataFrame = q match {
        case "s2s"     => () => PartitionedExec.s2s(in.pings, e)
        case "t2t"     => () => PartitionedExec.t2t(in.pings, in.tor, e)
        case "log"     => () => PartitionedExec.log(in.lines, e)
        case "s2s_src" => () => PartitionedExec.s2sPerSource(in.pings, (0L until Sources).map(_ -> (e(0), e(1))).toMap)
      }
      Plan(s"plan.$q.$pt", q, if (q == "log") in.nLines else in.nPings, build)
    }
    partitioned ++ Vector(
      Plan("full.s2s", "s2s", in.nPings, () => Queries.s2sFull(in.pings)),
      Plan("full.t2t", "t2t", in.nPings, () => Queries.t2tFull(in.pings, in.tor)),
      Plan("full.log", "log", in.nLines, () => Queries.logFull(in.lines)),
    )
  }

  /** The unpartitioned query a plan must reproduce. */
  def baseQuery(q: String): String = if (q == "s2s_src") "s2s" else q

  final case class Run(plan: Plan, ns: Long, result: Option[Collected], error: Option[String])

  private def execute(spark: SparkSession, plan: Plan, tracer: Tracer): Run = {
    spark.sparkContext.setLocalProperty(SparkCounters.TagKey, plan.name)
    val span = tracer.begin(plan.name)
    val t0 = System.nanoTime()
    val out =
      try Right(Collected.of(plan.build()))
      catch { case e: Exception => Left(s"${plan.name}: $e") }
    val ns = System.nanoTime() - t0
    tracer.end(span)
    spark.sparkContext.setLocalProperty(SparkCounters.TagKey, null)
    Run(plan, ns, out.toOption, out.left.toOption)
  }

  /** Run plans round-robin until `seconds` pass, completing at least one
    * full sweep.
    */
  private def sweep(spark: SparkSession, ps: Vector[Plan], seconds: Double, tracer: Tracer): Vector[Run] = {
    val runs = Vector.newBuilder[Run]
    val t0 = System.nanoTime()
    var i = 0
    while (i < ps.size || Setup.elapsedS(t0) < seconds) {
      runs += execute(spark, ps(i % ps.size), tracer)
      i += 1
    }
    runs.result()
  }

  /** Median time of each plan, in sweep order, in ms. */
  private def perPlanMs(runs: Vector[Run]): Vector[(Plan, Double)] =
    runs.groupBy(_.plan.name).values.map(rs => rs.head.plan -> Stats.median(rs.map(_.ns / 1e6))).toVector
      .sortBy { case (p, _) => runs.indexWhere(_.plan.name == p.name) }

  /** Records × plans ÷ time, with each plan weighted once. */
  private def recPerS(perPlan: Vector[(Plan, Double)]): Double =
    perPlan.map(_._1.records).sum / (perPlan.map(_._2).sum / 1e3)

  def run(args: Args, report: Report, stamp: Stamp): Unit = {
    val local1 = args.phase == "local1"
    // Warm-up, before set-up and untimed: compile every plan shape once on a
    // small input, four plans at a time. Compiled query code outlives the
    // session, so the set-ups and the timed sweep that follow run warm.
    val w0 = System.nanoTime()
    val warm = {
      val spark = Setup.session("perfbench-plan-sweep", stamp)
      val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      try Await.result(Future.traverse(plans(inputs(spark, args.seed, WarmupEpochs, None)))(p =>
        Future(execute(spark, p, Tracer.off))), Duration.Inf)
      finally pool.shutdown()
    }
    report.put("warmup_s", Setup.elapsedS(w0))
    Setup.progress("warmed up")

    val ((spark, in), setupS) = Setup.repeat(if (args.trace) 1 else SetupReps) {
      val spark = Setup.session("perfbench-plan-sweep", stamp)
      (spark, inputs(spark, args.seed, Epochs, Some(report)))
    }
    report.put("setup_s", setupS)
    stamp("input") = s"${in.nPings} Pingmesh records ($Sources sources x $Peers peers x $Epochs epochs), " +
      s"${in.nLines} log lines, ToR map of ${math.max(Sources, Peers)} ips"
    stamp("lp_points") = Metrics.Queries.map(q => s"$q=${points(q)(1)._2.mkString("(", ",", ")")}").mkString(" ")
    val ps = plans(in)
    Setup.progress("set up")

    val runs = sweep(spark, ps, args.seconds, Tracer.off)
    Setup.progress("timed sweep done")
    val perPlan = perPlanMs(runs)
    // The sweep is the unit of work here: the 15 plans differ up to 3x in
    // cost, so a percentile over single plans would pick one plan's time.
    val sweepMs = runs.grouped(ps.size).filter(_.size == ps.size).map(_.map(_.ns / 1e6).sum).toVector
    report.put("op_ms_p50", Stats.median(sweepMs))
    report.put("op_ms_p75", Stats.quantile(sweepMs, 0.75))
    report.put("rec_per_s", recPerS(perPlan))
    report.put("op.samples", runs.size)
    stamp("plan_runs_timed") = runs.size

    if (local1) report.put("local1.rec_per_s", recPerS(perPlan))
    else {
      for ((p, m) <- perPlan) report.put(s"${p.name}_ms", m)
      val full = perPlan.collect { case (p, m) if p.name.startsWith("full.") => p.query -> m }.toMap
      for (q <- Metrics.Queries)
        report.put(s"plan.$q.overhead", perPlan.find(_._1.name == s"plan.$q.lp").get._2 / full(baseQuery(q)))
      report.put("drained_bytes_per_rec", drainedBytesPerRec(in))
      Setup.progress("drained bytes counted")
    }
    args.local1.foreach {
      case "failed" => report.fail("the single-threaded local[1] baseline run failed")
      case v =>
        report.put("local1.rec_per_s", v.toDouble)
        report.put("local1.speedup", recPerS(perPlan) / v.toDouble)
    }

    var all = warm ++ runs
    if (args.trace && !local1) {
      val tracer = new Tracer()
      val counters = SparkCounters.install(spark.sparkContext, tracer)
      val traced = sweep(spark, ps, 0, tracer)
      all ++= traced
      val tracedMs = traced.map(_.ns / 1e6).sum
      report.put("trace.op_ms_p50_untraced", Stats.median(sweepMs))
      report.put("trace.op_ms_p50_traced", tracedMs)
      report.put("trace.overhead_ms", tracedMs - Stats.median(sweepMs))
      for (p <- ps if p.name.startsWith("plan.")) {
        val c = counters.get(p.name)
        report.put(s"${p.name}.shuffle_mb", c.shuffleBytes / 1e6)
        report.put(s"${p.name}.tasks", c.tasks)
      }
      tracer.write(args.outDir.resolve(s"trace-${args.runId}.jsonl"))
      report.put("trace.spans", tracer.size)
      report.put("trace.spans_dropped", tracer.dropped)
    }

    Setup.progress("gates")
    // Reference gate, outside the timed loop: each plan's rows equal those
    // of the unpartitioned query on the same input, from the sweep's first
    // run of Queries.*Full.
    val timedRuns = all.drop(warm.size)
    val reference = timedRuns.filter(_.plan.name.startsWith("full.")).groupBy(_.plan.query)
      .flatMap { case (q, rs) => rs.head.result.map(r => q -> RowGate.canon(r)) }
    for (r <- warm) report.op(r.error)
    for (r <- timedRuns) report.op(r.error.orElse(reference.get(baseQuery(r.plan.query)) match {
      case Some(expected) => RowGate.check(RowGate.canon(r.result.get), expected).map(d => s"${r.plan.name}: $d")
      case None => Some(s"${r.plan.name}: no reference result")
    }))
  }

  /** Wire bytes the partitioned plans drain from source to stream processor
    * per input record, counted on the data: a record leaves at proxy i when
    * e_i ≤ u < e_{i-1} (e_{-1} = 1) and, past the first proxy, only if the
    * query's filter kept it; it costs the wire size at operator i. The
    * mean over the partitioned plans of the sweep.
    */
  def drainedBytesPerRec(in: Inputs): Double = {
    val u = PartitionedExec.uCol(col("recId"))
    def lanes(query: String, keep: Column): Vector[Column] = {
      val bytes = specs(query)._1.bytesAtOp
      for ((_, e) <- points(query)) yield e.indices.map { i =>
        val upper = if (i == 0) 1.0 else e(i - 1)
        val kept = if (i == 0) lit(true) else keep
        sum(when(u >= e(i) && u < upper && kept, bytes(i)).otherwise(0.0))
      }.reduce(_ + _)
    }
    val pingOk = col("errCode") === 0
    val lineOk = col("raw").startsWith("ts=") && col("raw").contains(" lat_ms=")
    val pingPlans = Vector("s2s", "t2t", "s2s_src").flatMap(lanes(_, pingOk))
    val pings = in.pings.select(pingPlans: _*).collect()(0)
    val lines = in.lines.select(lanes("log", lineOk): _*).collect()(0)
    val perPlan = pingPlans.indices.map(pings.getDouble(_) / in.nPings) ++
      (0 until lines.length).map(lines.getDouble(_) / in.nLines)
    perPlan.sum / perPlan.size
  }
}
