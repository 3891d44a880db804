package repro.perfbench

import repro.core.adapt.{EpochExecutor, JarvisRuntime, Phase, PipelineState, ProfileEstimates}
import repro.core.lp.LoadFactorLP
import repro.core.model.{Calibration, QuerySpec}
import repro.sim.{Lcg, SourceNodeSim}

/** `control-sim`: the control plane without Spark. Seeded `JarvisRuntime`
  * trajectories over `SourceNodeSim` for the three calibrated queries, with
  * random budget, rate and join-table (`setSpec`) changes, interleaved with
  * passes of the T1, T2, T3, T5 and T6 table computations.
  *
  * Why: the LP, StepWise-Adapt and the simulator are all the work here, so
  * this is where the paper's "< 1 % of a core" claim for the runtime, and
  * any change to the shared flow model, shows.
  */
object ControlSim {
  val TrajectoryEpochs = 200
  val Trajectories = 3000
  /** Trajectories every run completes; the control outputs are taken over them. */
  val PrefixTrajectories = 300
  /** Trajectories left out of the timing samples while the JIT settles. */
  val WarmupTrajectories = 1000
  /** Runtime steps between two table passes. */
  val StepsPerPass = 200000
  /** Set-ups per run: enough that their median is one the JIT has compiled. */
  val SetupReps = 41

  /** A change applied before `epoch`: a new budget (cores), a new input
    * rate, or a new spec (a T2T join-table size).
    */
  final case class Change(epoch: Int, budget: Double, rate: Double, spec: Option[QuerySpec])

  final case class Trajectory(query: Int, budget: Double, rate: Double, seed: Long, changes: Array[Change])

  val queries: Vector[(QuerySpec, Double)] = Vector(
    (Calibration.s2sProbe, Calibration.PingmeshRecsPerSec),
    (Calibration.t2tProbe(), Calibration.PingmeshRecsPerSec),
    (Calibration.logAnalytics, Calibration.LogRecsPerSec),
  )

  def trajectories(seed: Long): Vector[Trajectory] = {
    val rng = new Lcg(seed)
    val t2tSpecs = (50L to 1000L by 50L).map(Calibration.t2tProbe).toVector
    Vector.tabulate(Trajectories) { j =>
      val q = j % queries.size
      val baseRate = queries(q)._2
      var budget = 0.05 + 0.95 * rng.next()
      var rate = baseRate * (0.6 + 0.8 * rng.next())
      val startBudget = budget
      val startRate = rate
      val changes = Array.newBuilder[Change]
      var epoch = 8 + (12 * rng.next()).toInt
      while (epoch < TrajectoryEpochs) {
        val kind = (3 * rng.next()).toInt
        var spec: Option[QuerySpec] = None
        if (kind == 0) budget = 0.05 + 0.95 * rng.next()
        else if (kind == 1 || q != 1) rate = baseRate * (0.6 + 0.8 * rng.next())
        else spec = Some(t2tSpecs((t2tSpecs.size * rng.next()).toInt))
        changes += Change(epoch, budget, rate, spec)
        epoch += 8 + (12 * rng.next()).toInt
      }
      Trajectory(q, startBudget, startRate, (rng.next() * 1e9).toLong, changes.result())
    }
  }

  /** What a traced trajectory records besides its step times. */
  final class Traced {
    val tracer = new Tracer()
    val selfNs = new NanoHistogram
    val simRunNs = new NanoHistogram
    val simProfileNs = new NanoHistogram
    val profiles = collection.mutable.ArrayBuffer.empty[ProfileEstimates]
  }

  /** Steps one trajectory, timing each `runtime.step()`. When traced, each
    * step is a span and the simulator runs behind a [[TimedExecutor]].
    */
  private def runTrajectory(t: Trajectory, steps: NanoHistogram, traced: Option[Traced]): JarvisRuntime = {
    val sim = new SourceNodeSim(queries(t.query)._1, t.budget, t.rate, seed = t.seed)
    val tracer = traced.fold(Tracer.off)(_.tracer)
    val timed = traced.map(x => new TimedExecutor(sim, x.tracer, x.simRunNs, x.simProfileNs, x.profiles))
    val runtime = new JarvisRuntime(timed.getOrElse(sim): EpochExecutor)
    var c = 0
    var k = 0
    while (k < TrajectoryEpochs) {
      while (c < t.changes.length && t.changes(c).epoch == k) {
        val ch = t.changes(c)
        sim.budgetCores = ch.budget
        sim.inputRecsPerSec = ch.rate
        ch.spec.foreach(sim.setSpec)
        c += 1
      }
      timed.foreach(_.stepNs = 0L)
      val span = tracer.begin("runtime.step")
      val s = System.nanoTime()
      runtime.step()
      val ns = System.nanoTime() - s
      tracer.end(span)
      steps.add(ns)
      for (x <- traced; te <- timed) x.selfNs.add(ns - te.stepNs)
      k += 1
    }
    runtime
  }

  /** One pass over the table harnesses; returns each table's time in ms
    * and its printed text.
    */
  private def tablePass(): Vector[(String, Double, String)] =
    TableGate.Tables.map { case (name, print) =>
      val t0 = System.nanoTime()
      val text = TableGate.render(print)
      (name, (System.nanoTime() - t0) / 1e6, text)
    }

  def run(args: Args, report: Report, stamp: Stamp): Unit = {
    val (trajs, setupS) = Setup.repeat(if (args.trace) 1 else SetupReps)(trajectories(args.seed))
    report.put("setup_s", setupS)
    stamp("input") = s"$Trajectories trajectories x $TrajectoryEpochs epochs over S2SProbe, T2TProbe, " +
      s"LogAnalytics; ${trajs.map(_.changes.length).sum} changes"

    val steps = new NanoHistogram
    val warmSteps = new NanoHistogram
    val passMs = collection.mutable.ArrayBuffer.empty[Double]
    val tableMs = collection.mutable.HashMap.empty[String, collection.mutable.ArrayBuffer[Double]]
    var drained = 0.0
    var incoming = 0.0
    var timedRecs = 0.0
    var converged = 0L
    var profileEpochs = 0L
    var tunerSteps = 0L

    def checkTables(): Unit = {
      val pass = tablePass()
      passMs += pass.map(_._2).sum
      for ((name, ms, text) <- pass) {
        tableMs.getOrElseUpdate(name, collection.mutable.ArrayBuffer.empty) += ms
        report.op(TableGate.check(name, text))
      }
    }

    val t0 = System.nanoTime()
    var j = 0
    var sinceTables = 0L
    while (j < math.max(PrefixTrajectories, WarmupTrajectories + 100) || Setup.elapsedS(t0) < args.seconds) {
      val warm = j < WarmupTrajectories
      val rt = runTrajectory(trajs(j % trajs.size), if (warm) warmSteps else steps, None)
      val log = rt.log
      for (e <- log) report.op(GridGate.check(e.p).map(d => s"trajectory $j epoch ${e.epoch}: $d"))
      if (!warm) timedRecs += log.iterator.flatMap(_.obs).map(_.proxies.head.incoming).sum
      if (j < PrefixTrajectories) {
        for (e <- log; o <- e.obs) { drained += o.drainedBytes; incoming += o.proxies.head.incoming }
        converged += rt.convergences.sum
        profileEpochs += log.count(_.phase == Phase.Profile)
        tunerSteps += log.count(e => e.phase == Phase.Adapt && e.state != PipelineState.Stable)
      }
      j += 1
      sinceTables += TrajectoryEpochs
      if (sinceTables >= StepsPerPass) { checkTables(); sinceTables = 0 }
    }
    if (passMs.isEmpty) checkTables()

    report.put("op_ms_p50", steps.quantileNs(0.5) / 1e6)
    report.put("op_ms_p75", steps.quantileNs(0.75) / 1e6)
    report.put("rec_per_s", timedRecs / (steps.sumNs / 1e9))
    report.put("drained_bytes_per_rec", drained / incoming)
    report.put("op.samples", steps.count)
    report.put("control.us_p99", steps.quantileNs(0.99) / 1e3)
    // One step is one simulated 1 s epoch on one thread.
    report.put("control.core_pct", 100.0 * steps.meanNs / 1e9 / Calibration.EpochSeconds)
    report.put("adapt.converge_epochs", converged)
    report.put("adapt.profile_epochs", profileEpochs)
    report.put("adapt.tuner_steps", tunerSteps)
    report.put("lp.calls", profileEpochs)
    report.put("exp.pass_ms", Stats.median(passMs))
    for ((name, ms) <- tableMs) report.put(s"exp.${name}_ms", Stats.median(ms))
    stamp("trajectories_run") = j
    stamp("table_passes") = passMs.size

    if (args.trace) {
      val traced = new Traced
      val tracedSteps = new NanoHistogram
      val t1 = System.nanoTime()
      var k = 0
      while (k < WarmupTrajectories || Setup.elapsedS(t1) < args.seconds / 2.0) {
        val rt = runTrajectory(trajs(k % trajs.size), tracedSteps, Some(traced))
        for (e <- rt.log) report.op(GridGate.check(e.p))
        k += 1
      }
      report.put("trace.op_ms_p50_untraced", steps.quantileNs(0.5) / 1e6)
      report.put("trace.op_ms_p50_traced", tracedSteps.quantileNs(0.5) / 1e6)
      report.put("trace.overhead_ms", (tracedSteps.quantileNs(0.5) - steps.quantileNs(0.5)) / 1e6)
      report.put("adapt.step_self_us_p50", traced.selfNs.quantileNs(0.5) / 1e3)
      report.put("sim.run_epoch_us_p50", traced.simRunNs.quantileNs(0.5) / 1e3)
      report.put("sim.profile_epoch_us_p50", traced.simProfileNs.quantileNs(0.5) / 1e3)
      report.put("lp.replay_ns_p50", replayNs(traced.profiles.toVector))
      for ((m, ns) <- lpSolveNs(args.seed)) report.put(s"lp.solve_ns_p50.m$m", ns)
      traced.tracer.write(args.outDir.resolve(s"trace-${args.runId}.jsonl"))
      report.put("trace.spans", traced.tracer.size)
      report.put("trace.spans_dropped", traced.tracer.dropped)
    }
  }

  /** Median time of re-solving the captured Profile estimates with the LP. */
  private def replayNs(profiles: Vector[ProfileEstimates]): Double = {
    val h = new NanoHistogram
    for (_ <- 0 until 3; p <- profiles) {
      val s = System.nanoTime()
      LoadFactorLP.solve(p.costs, p.recRelays, p.bytesAtOp, p.budgetPerRec)
      h.add(System.nanoTime() - s)
    }
    h.quantileNs(0.5)
  }

  /** Median LP solve time on seeded random instances with M = 2..8
    * operators; the first half of each batch warms the JIT.
    */
  private def lpSolveNs(seed: Long): Vector[(Int, Double)] = {
    val rng = new Lcg(seed ^ 0x5eedL)
    (2 to 8).toVector.map { m =>
      val h = new NanoHistogram
      for (i <- 0 until 20000) {
        val costs = Vector.fill(m)(1e-6 + 1e-4 * rng.next())
        val relays = Vector.fill(m)(0.1 + 0.9 * rng.next())
        val bytes = Vector.fill(m)(10.0 + 190.0 * rng.next())
        val budget = costs.sum * rng.next()
        val s = System.nanoTime()
        LoadFactorLP.solve(costs, relays, bytes, budget)
        val ns = System.nanoTime() - s
        if (i >= 10000) h.add(ns)
      }
      m -> h.quantileNs(0.5)
    }
  }
}
