package repro

/** The settings every job, test and benchmark session gets from
  * `JobSession.build`.
  */
class JobSessionSpec extends SparkSpec {

  test("the session runs without adaptive execution, one shuffle partition per core") {
    assert(spark.conf.get("spark.sql.adaptive.enabled") == "false")
    assert(spark.conf.get("spark.sql.shuffle.partitions") == spark.sparkContext.defaultParallelism.toString)
  }
}
