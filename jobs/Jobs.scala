package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** The one Spark session builder: the spark-submit entrypoints, the tests
  * and perfbench all build their session here. Broadcast joins are disabled
  * so the joins exercise the shuffle path at the small test scales.
  *
  * Adaptive execution is off: the epoch driver reads its proxy counters
  * from the plan it built, and at these batch sizes adaptive execution's
  * per-stage jobs and re-planning cost more than its coalescing saves. With
  * it off, an epoch's plan runs as one Spark job, and every shuffle has one
  * partition per core of the session (`defaultParallelism`).
  */
object JobSession {
  def build(name: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism)
    spark
  }
}

/** T1 (Fig. 7): single-source throughput tables — pure simulator, no Spark
  * needed; kept as a job for uniformity.
  */
object T1ThroughputJob {
  def main(args: Array[String]): Unit = Exp1Throughput.printAll()
}

/** T2 (Fig. 8): convergence scenarios. */
object T2ConvergenceJob {
  def main(args: Array[String]): Unit = Exp2Convergence.printAll()
}

/** T3 (§VI-C): operator-count convergence study. */
object T3OperatorCountJob {
  def main(args: Array[String]): Unit = Exp3OperatorCount.printAll()
}

/** T4 (Fig. 9): data-synopsis comparison — runs WSP sampling on Spark. */
object T4SynopsisJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("jarvis-t4-synopsis")
    try Exp4Synopsis.printAll(spark)
    finally spark.stop()
  }
}

/** T5 (Fig. 10): multi-source scaling. */
object T5ScalingJob {
  def main(args: Array[String]): Unit = Exp5Scaling.printAll()
}

/** T6 (Fig. 11): multiple queries per source. */
object T6MultiQueryJob {
  def main(args: Array[String]): Unit = Exp6MultiQuery.printAll()
}
