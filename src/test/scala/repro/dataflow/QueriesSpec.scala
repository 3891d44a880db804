package repro.dataflow

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** DuckDB-oracle correctness of the three full (unpartitioned) monitoring
  * queries — the ground truth every partitioned plan is later diffed
  * against.
  */
class QueriesSpec extends SparkSpec {

  private lazy val pings = MonitoringData.pingmesh(spark, nSources = 5, nPeers = 20,
    nEpochs = 22, probesPerEpoch = 3).cache()
  private lazy val tor = MonitoringData.torMap(spark, 32, ipsPerTor = 8).cache()
  private lazy val lines = MonitoringData.logLines(spark, nSources = 4, nTenants = 6,
    nEpochs = 22, linesPerEpoch = 5).cache()

  test("S2SProbe matches DuckDB") {
    Oracle.assertEquivalent(Queries.s2sFull(pings), Queries.s2sSql, "pings" -> pings)
  }

  test("S2SProbe drops error records") {
    val out = Queries.s2sFull(pings)
    val total = out.agg(sum("cnt")).collect()(0).getLong(0)
    val expected = pings.filter(col("errCode") === 0).count()
    assert(total == expected)
  }

  test("S2SProbe groups by 10-second windows") {
    val wins = Queries.s2sFull(pings).select("win").distinct().collect().map(_.getLong(0))
    assert(wins.forall(w => w >= 0 && w <= 2)) // 22 epochs => windows 0..2
    assert(wins.length == 3)
  }

  test("S2SProbe min <= avg <= max on every row") {
    val bad = Queries.s2sFull(pings)
      .filter(col("min_rtt") > col("avg_rtt") + 1e-9 || col("avg_rtt") > col("max_rtt") + 1e-9)
      .count()
    assert(bad == 0)
  }

  test("T2TProbe matches DuckDB") {
    Oracle.assertEquivalent(Queries.t2tFull(pings, tor), Queries.t2tSql,
      "pings" -> pings, "tormap" -> tor)
  }

  test("T2TProbe output cardinality is bounded by ToR pairs x windows") {
    val out = Queries.t2tFull(pings, tor)
    val tors = tor.select("tor").distinct().count()
    assert(out.count() <= tors * tors * 3)
  }

  test("T2TProbe record counts survive the join (every ip mapped)") {
    val total = Queries.t2tFull(pings, tor).agg(sum("cnt")).collect()(0).getLong(0)
    val expected = pings.filter(col("errCode") === 0).count()
    assert(total == expected)
  }

  test("LogAnalytics matches DuckDB") {
    Oracle.assertEquivalent(Queries.logFull(lines), Queries.logSql, "logs" -> lines.select("raw"))
  }

  test("LogAnalytics counts only valid lines") {
    val total = Queries.logFull(lines).agg(sum("cnt")).collect()(0).getLong(0)
    val expected = Queries.logFilter(lines).count()
    assert(total == expected)
  }

  test("generated log lines pass the line pattern exactly when they pass a prefix check") {
    val byPrefix = lines.filter(col("raw").startsWith("ts=") && col("raw").contains(" lat_ms="))
    assert(byPrefix.count() > 0 && byPrefix.count() < lines.count())
    assert(Queries.logFilter(lines).count() == byPrefix.count())
    assert(Queries.logFilter(lines).exceptAll(byPrefix).isEmpty)
  }

  test("LogAnalytics drops the lines it cannot parse on every path, as DuckDB does") {
    val bad = Seq(
      "ts=2000 lat_ms=5",
      "ts=2000 tenant=t1 job=j1 lat_ms=5 mem=10",                     // no cpu=
      "ts=2000 tenant=t1 job=j1 lat_ms=5 cpu=1.5",                    // no mem=
      "ts=2000 job=j1 lat_ms=5 cpu=1.5 mem=10",                       // no tenant=
      "ts=abc tenant=t1 job=j1 lat_ms=5 cpu=1.5 mem=10",
      "ts=12345678901234567890 tenant=t1 job=j1 lat_ms=5 cpu=1.5 mem=10",
      "ts=2000 tenant=t1 job=j1 lat_ms=12345678901234567890 cpu=1.5 mem=10",
      "ts=2000 tenant=t1 job=j1 lat_ms=5 cpu=1.5 mem=12345678901234567890",
      "ts=2000 tenant=t1 job=j1 lat_ms=5 cpu=1.2.3 mem=10",
    )
    val good = "ts=2000 tenant=t1 job=j1 lat_ms=5 cpu=1.5 mem=10"
    val extra = spark.createDataFrame((good +: bad).zipWithIndex.map { case (raw, i) =>
      (1000000L + i, i % 4L, 2000L, raw)
    }).toDF("recId", "sourceId", "ts", "raw")
    val mixed = lines.unionByName(extra)
    val logs = "logs" -> mixed.select("raw")
    assert(Queries.logFilter(extra).count() == 1)
    Oracle.assertEquivalent(Queries.logFull(mixed), Queries.logSql, logs)
    for (e <- Seq(Seq(0.0, 0.0, 0.0), Seq(1.0, 1.0, 1.0), Seq(0.7, 0.5, 0.1)))
      Oracle.assertEquivalent(PartitionedExec.log(mixed, e), Queries.logSql, logs)
    for (e <- Seq(Seq(0.0, 0.0), Seq(1.0, 0.35)))
      Oracle.assertEquivalent(PartitionedExec.global(mixed, PartitionedExec.logP95Chain, e), Queries.logP95Sql, logs)
    val d = new EpochSparkDriver(spark, PartitionedExec.logChain, _ => mixed, 1.0)
    d.runEpoch(Vector(1.0, 0.7, 0.5))
    Oracle.assertEquivalent(d.lastResult.get, Queries.logSql, logs)
  }

  test("LogAnalytics histogram buckets are 100ms wide") {
    val parsed = Queries.logParse(Queries.logFilter(lines))
      .withColumn("lat", col("bucket") * 100)
    assert(parsed.filter(col("bucket") < 0 || col("bucket") > 29).count() == 0)
  }

  test("empty input yields empty results on all queries") {
    val empty = pings.filter(lit(false))
    assert(Queries.s2sFull(empty).count() == 0)
    assert(Queries.t2tFull(empty, tor).count() == 0)
    assert(Queries.logFull(lines.filter(lit(false))).count() == 0)
  }

  test("all-error input yields empty S2S results") {
    val allErr = pings.withColumn("errCode", lit(1))
    assert(Queries.s2sFull(allErr).count() == 0)
  }
}
