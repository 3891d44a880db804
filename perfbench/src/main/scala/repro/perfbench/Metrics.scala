package repro.perfbench

/** Names and units of every metric a run reports. An untraced run prints
  * exactly [[EndToEnd]], a traced run exactly [[PerLayer]]; BENCHMARK.json
  * lists the same names. A per-layer metric of a layer the workload does
  * not exercise reads 0.
  */
object Metrics {
  val EndToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s",
    "op_ms_p50" -> "ms",
    "op_ms_p75" -> "ms",
    "rec_per_s" -> "rec/s",
    "drained_bytes_per_rec" -> "B/rec",
  )

  val Queries: Vector[String] = Vector("s2s", "t2t", "log", "s2s_src")
  val Points: Vector[String] = Vector("e0", "lp", "e1")
  val FullQueries: Vector[String] = Vector("s2s", "t2t", "log")
  val Tables: Vector[String] = Vector("t1", "t2", "t3", "t5", "t6")

  val PerLayer: Vector[(String, String)] = Vector(
    // dataflow, epoch-loop
    "driver.run_epoch_ms_p50" -> "ms",
    "driver.profile_epoch_ms_p50" -> "ms",
    "result.collect_ms_p50" -> "ms",
    "spark.jobs_per_epoch" -> "count",
    "spark.stages_per_epoch" -> "count",
    "spark.tasks_per_epoch" -> "count",
    "spark.nonempty_task_ratio" -> "ratio",
    "spark.shuffle_bytes_per_epoch" -> "B",
    "spark.task_run_ms_per_epoch" -> "ms",
    "spark.task_cpu_ms_per_epoch" -> "ms",
    "spark.driver_only_ms_p50" -> "ms",
  ) ++ (for (q <- Queries; e <- Points; (suffix, unit) <- Vector("_ms" -> "ms", ".shuffle_mb" -> "MB", ".tasks" -> "count"))
    yield s"plan.$q.$e$suffix" -> unit) ++
    FullQueries.map(q => s"full.${q}_ms" -> "ms") ++
    Queries.map(q => s"plan.$q.overhead" -> "ratio") ++ Vector(
    "gen.pingmesh_ms" -> "ms",
    "gen.loglines_ms" -> "ms",
    "local1.rec_per_s" -> "rec/s",
    "local1.speedup" -> "ratio",
  ) ++ (2 to 8).map(m => s"lp.solve_ns_p50.m$m" -> "ns") ++ Vector(
    "lp.calls" -> "count",
    "lp.replay_ns_p50" -> "ns",
    "adapt.step_self_us_p50" -> "us",
    "adapt.tuner_steps" -> "count",
    "adapt.profile_epochs" -> "count",
    "adapt.converge_epochs" -> "count",
    "sim.run_epoch_us_p50" -> "us",
    "sim.profile_epoch_us_p50" -> "us",
  ) ++ Tables.map(t => s"exp.${t}_ms" -> "ms") ++ Vector(
    "exp.pass_ms" -> "ms",
    "control.us_p99" -> "us",
    "control.core_pct" -> "%",
    "op.samples" -> "count",
    "failed_ops_pct" -> "%",
    "warmup_s" -> "s",
    "trace.op_ms_p50_untraced" -> "ms",
    "trace.op_ms_p50_traced" -> "ms",
    "trace.overhead_ms" -> "ms",
    "trace.spans" -> "count",
    "trace.spans_dropped" -> "count",
  )

  /** The run's metrics in list order: the end-to-end ones for an
    * untraced run, where a missing one fails the run, or the per-layer
    * ones for a traced run, where a layer the workload did not exercise
    * reads 0.
    */
  def select(report: Report, traced: Boolean): Seq[(String, Double, String)] =
    (if (traced) PerLayer else EndToEnd).map { case (name, unit) =>
      val v = report.get(name).getOrElse {
        if (!traced) report.fail(s"end-to-end metric $name was not measured")
        0.0
      }
      (name, v, unit)
    }
}
