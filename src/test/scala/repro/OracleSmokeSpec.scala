package repro

import org.apache.spark.sql.functions._
import repro.dataflow.MonitoringData

/** Sanity of the DuckDB oracle itself, over the Pingmesh stream the
  * reproduction runs on, so a broken oracle cannot silently validate it.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val pings = MonitoringData.pingmesh(spark, nSources = 6, nPeers = 20, nEpochs = 24).cache()

  test("oracle agrees on a simple aggregate") {
    val agg = pings.groupBy("errCode")
      .agg(count(lit(1)) as "cnt", sum("rtt") as "rtt_sum", max("rtt") as "rtt_max")
    Oracle.assertEquivalent(agg,
      """SELECT CAST(errCode AS INT) AS errCode, count(*) AS cnt,
        |       sum(CAST(rtt AS DOUBLE)) AS rtt_sum, max(CAST(rtt AS DOUBLE)) AS rtt_max
        |FROM pings GROUP BY 1""".stripMargin,
      "pings" -> pings)
  }

  test("oracle catches a wrong result") {
    val wrong = pings.groupBy("errCode").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT CAST(errCode AS INT) AS errCode, count(*) AS cnt FROM pings GROUP BY 1",
        "pings" -> pings)
    }
  }

  test("oracle catches a column-name mismatch") {
    val agg = pings.groupBy("errCode").agg(count(lit(1)) as "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT CAST(errCode AS INT) AS errCode, count(*) AS cnt FROM pings GROUP BY 1",
        "pings" -> pings)
    }
  }

  /** One `(k, v)` row, and the SQL that reads such a table back. */
  private def kv(v: Double) = {
    import spark.implicits._
    Seq((1L, v)).toDF("k", "v")
  }
  private val kvSql = "SELECT CAST(k AS BIGINT) AS k, CAST(v AS DOUBLE) AS v FROM t"

  test("a one-ulp difference on a six-decimal rounding boundary compares equal") {
    val x = 2.0327875
    DfCompare.assertSameRows(kv(x), kv(math.nextDown(x)))
    Oracle.assertEquivalent(kv(x), kvSql, "t" -> kv(math.nextDown(x)))
  }

  test("a 1e-6 difference still fails both comparisons, at any magnitude") {
    for ((a, b) <- Seq((2.0327875, 2.0327885), (8191.0, 8191.000001))) {
      intercept[AssertionError](DfCompare.assertSameRows(kv(a), kv(b)))
      intercept[IllegalArgumentException](Oracle.assertEquivalent(kv(a), kvSql, "t" -> kv(b)))
    }
  }
}
