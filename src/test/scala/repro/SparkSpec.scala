package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.JobSession

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The session is built by `JobSession.build`, as the jobs and perfbench
  * build theirs, so tests and benchmark run under the same Spark settings.
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM; when that is unset, build.sbt takes half of physical
  * memory, clamped to 2–8 GB.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.build("repro")
    // One line in test output with the heap setting and parallelism the
    // tests ran under.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
