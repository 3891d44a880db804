package repro

import org.apache.spark.sql.functions._

/** Sanity of the provided DuckDB oracle + TPC-H-lite generators themselves,
  * so a broken oracle cannot silently validate the reproduction.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()

  test("oracle agrees on a simple aggregate") {
    val agg = li.groupBy("l_returnflag")
      .agg(count(lit(1)) as "cnt", round(sum("l_quantity"), 2) as "qty")
    Oracle.assertEquivalent(agg,
      """SELECT l_returnflag, count(*) AS cnt,
        |       round(sum(CAST(l_quantity AS DOUBLE)), 2) AS qty
        |FROM lineitem GROUP BY 1""".stripMargin,
      "lineitem" -> li)
  }

  test("oracle catches a wrong result") {
    val wrong = li.groupBy("l_returnflag").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT l_returnflag, count(*) AS cnt FROM lineitem GROUP BY 1",
        "lineitem" -> li)
    }
  }

  test("oracle catches a column-name mismatch") {
    val agg = li.groupBy("l_returnflag").agg(count(lit(1)) as "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT l_returnflag, count(*) AS cnt FROM lineitem GROUP BY 1",
        "lineitem" -> li)
    }
  }

  test("synthetic lineitem is deterministic in (sf, seed)") {
    val again = SynthData.lineitem(spark, sf = 0.002)
    DfCompare.assertSameRows(
      li.groupBy("l_returnflag").agg(round(sum("l_extendedprice"), 2) as "s"),
      again.groupBy("l_returnflag").agg(round(sum("l_extendedprice"), 2) as "s"),
    )
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
