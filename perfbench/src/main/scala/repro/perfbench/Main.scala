package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession

/** Command-line settings of one run. `phase` is "main", or "local1" for the
  * single-threaded plan-sweep baseline that a traced plan-sweep run adds.
  */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, phase: String,
                      outDir: Path, local1: Option[String]) {
  def runId: String = s"$workload-seed$seed-trace${if (trace) 1 else 0}${if (phase == "main") "" else s"-$phase"}"
}

/** Facts about the run that make its numbers comparable; printed before
  * the result and saved with it.
  */
final class Stamp {
  private val fields = mutable.LinkedHashMap.empty[String, Any]
  def update(key: String, value: Any): Unit = fields(key) = value
  def json: String = Json.obj(fields.toSeq)
}

object Main {
  val Workloads: Seq[String] = Seq("epoch-loop", "plan-sweep", "control-sim")

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = need("workload")
    require(Workloads.contains(workload), s"unknown workload $workload; one of ${Workloads.mkString(", ")}")
    val seconds = need("seconds").toInt
    require(seconds >= 0, "--seconds must not be negative")
    Args(workload, need("seed").toLong, seconds, need("trace") == "1", kv.getOrElse("phase", "main"),
      Paths.get(kv.getOrElse("out", "perfbench/out")), kv.get("local1"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val report = new Report
    val stamp = new Stamp
    stamp("workload") = args.workload
    stamp("seed") = args.seed
    stamp("seconds") = args.seconds
    stamp("trace") = args.trace
    stamp("phase") = args.phase
    stamp("git_sha") = sys.env.getOrElse("PERFBENCH_GIT_SHA", "unknown")
    stamp("source_sha256") = sys.env.getOrElse("PERFBENCH_SOURCE_SHA256", "unknown")
    stamp("nproc") = Runtime.getRuntime.availableProcessors()
    stamp("mem_total_bytes") = java.lang.management.ManagementFactory.getOperatingSystemMXBean match {
      case os: com.sun.management.OperatingSystemMXBean => os.getTotalMemorySize
      case _ => -1L
    }
    stamp("max_heap_bytes") = Runtime.getRuntime.maxMemory()
    stamp("jdk") = s"${System.getProperty("java.vendor")} ${System.getProperty("java.runtime.version")}"
    stamp("spark_version") = org.apache.spark.SPARK_VERSION
    stamp("scala_version") = scala.util.Properties.versionNumberString

    Setup.progress(s"start ${args.runId}")
    args.workload match {
      case "epoch-loop"  => EpochLoop.run(args, report, stamp)
      case "plan-sweep"  => PlanSweep.run(args, report, stamp)
      case "control-sim" => ControlSim.run(args, report, stamp)
    }
    SparkSession.getDefaultSession.foreach(_.stop())

    Setup.progress("done")
    report.put("failed_ops_pct", report.failedPct)
    val metrics = Metrics.select(report, args.trace)
    report.problems.foreach(p => Console.err.println(s"[perfbench] failed: $p"))
    val result = report.json(metrics)
    Files.createDirectories(args.outDir)
    Files.write(args.outDir.resolve(s"${args.runId}.json"),
      s"""{"stamp": ${stamp.json}, "result": $result}\n""".getBytes(UTF_8))
    println(s"stamp: ${stamp.json}")
    println(result)
  }
}

object Setup {
  /** Stop any running session and build a new one the way the jobs do, so
    * configuration changes in the program are measured. The master comes
    * from SPARK_MASTER, which the launcher sets.
    */
  def session(name: String, stamp: Stamp): SparkSession = {
    SparkSession.getDefaultSession.foreach(_.stop())
    SparkSession.clearDefaultSession()
    SparkSession.clearActiveSession()
    val spark = JobSession.build(name)
    stamp("spark_master") = spark.sparkContext.master
    stamp("spark_default_parallelism") = spark.sparkContext.defaultParallelism
    stamp("spark_shuffle_partitions") = spark.conf.get("spark.sql.shuffle.partitions")
    spark
  }

  /** Run `build` `reps` times; returns the last result and the median time
    * of one set-up in seconds.
    */
  def repeat[A](reps: Int)(build: => A): (A, Double) = {
    var last: Option[A] = None
    val secs = (1 to reps).map { _ =>
      val t0 = System.nanoTime()
      last = Some(build)
      (System.nanoTime() - t0) / 1e9
    }
    (last.get, Stats.median(secs))
  }

  def elapsedS(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val started = System.nanoTime()

  /** Progress line on stderr, with seconds since the JVM set up this object. */
  def progress(msg: String): Unit = Console.err.println(f"[perfbench] ${elapsedS(started)}%7.1fs $msg")
}
