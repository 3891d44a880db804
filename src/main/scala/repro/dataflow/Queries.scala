package repro.dataflow

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The three monitoring queries of the evaluation (§VI-A), as plain
  * DataFrame pipelines over the synthetic streams — the unpartitioned
  * ground truth that every partitioned plan must reproduce exactly.
  *
  * Output columns are aliased identically to the DuckDB oracle SQL in the
  * tests; all outputs are scalar columns.
  */
object Queries {

  /** 10-second tumbling window id from a millisecond timestamp. */
  def winCol(ts: Column): Column = (ts / MonitoringData.WindowMs).cast(LongType)

  // ------------------------------------------------------------------
  // S2SProbe (Listing 1): W → F(errCode == 0) → G(srcIp, dstIp) → R(avg/max/min)
  // ------------------------------------------------------------------

  /** Filter predicate of S2SProbe/T2TProbe. */
  def pingFilter(df: DataFrame): DataFrame = df.filter(col("errCode") === 0)

  def s2sFull(pings: DataFrame): DataFrame =
    pingFilter(pings)
      .groupBy(winCol(col("ts")) as "win", col("srcIp"), col("dstIp"))
      .agg(
        avg("rtt") as "avg_rtt",
        max("rtt") as "max_rtt",
        min("rtt") as "min_rtt",
        count(lit(1)) as "cnt",
      )

  /** Oracle SQL equivalent of [[s2sFull]] over a table named `pings`. */
  val s2sSql: String =
    """SELECT CAST(ts AS BIGINT) // 10000 AS win, srcIp, dstIp,
      |       avg(CAST(rtt AS DOUBLE)) AS avg_rtt,
      |       max(CAST(rtt AS DOUBLE)) AS max_rtt,
      |       min(CAST(rtt AS DOUBLE)) AS min_rtt,
      |       count(*) AS cnt
      |FROM pings WHERE CAST(errCode AS INT) = 0
      |GROUP BY 1, 2, 3""".stripMargin

  // ------------------------------------------------------------------
  // T2TProbe (Listing 2): W → F → J(ip → ToR) → G(srcToR, dstToR) → R
  // ------------------------------------------------------------------

  /** The join operator: attach src/dst ToR ids and project down to the
    * fields the aggregation needs (§VI-B: the projection shrinks records),
    * plus the input columns named in `carry`.
    */
  def torJoin(pings: DataFrame, tor: DataFrame, carry: Seq[String] = Nil): DataFrame =
    pings
      .join(tor.select(col("ip") as "s_ip", col("tor") as "srcTor"), col("srcIp") === col("s_ip"))
      .join(tor.select(col("ip") as "d_ip", col("tor") as "dstTor"), col("dstIp") === col("d_ip"))
      .select(Seq(winCol(col("ts")) as "win", col("srcTor"), col("dstTor"), col("rtt")) ++
        carry.map(col): _*)

  def t2tFull(pings: DataFrame, tor: DataFrame): DataFrame =
    torJoin(pingFilter(pings), tor)
      .groupBy(col("win"), col("srcTor"), col("dstTor"))
      .agg(
        avg("rtt") as "avg_rtt",
        max("rtt") as "max_rtt",
        min("rtt") as "min_rtt",
        count(lit(1)) as "cnt",
      )

  /** Oracle SQL equivalent of [[t2tFull]] over tables `pings` and `tormap`. */
  val t2tSql: String =
    """SELECT CAST(p.ts AS BIGINT) // 10000 AS win,
      |       CAST(s.tor AS BIGINT) AS srcTor, CAST(d.tor AS BIGINT) AS dstTor,
      |       avg(CAST(p.rtt AS DOUBLE)) AS avg_rtt,
      |       max(CAST(p.rtt AS DOUBLE)) AS max_rtt,
      |       min(CAST(p.rtt AS DOUBLE)) AS min_rtt,
      |       count(*) AS cnt
      |FROM pings p
      |JOIN tormap s ON CAST(p.srcIp AS BIGINT) = CAST(s.ip AS BIGINT)
      |JOIN tormap d ON CAST(p.dstIp AS BIGINT) = CAST(d.ip AS BIGINT)
      |WHERE CAST(p.errCode AS INT) = 0
      |GROUP BY 1, 2, 3""".stripMargin

  // ------------------------------------------------------------------
  // LogAnalytics (Listing 3): W → F(valid line) → M(parse) → G(tenant,
  // bucket) → R(histogram counts + resource aggregates)
  // ------------------------------------------------------------------

  /** A whole log line in the format `MonitoringData.logLines` writes, with
    * at most 15 digits per number: every line it matches parses, each field
    * fits a BIGINT, and a DOUBLE holds it exactly, so Spark's `/` and
    * DuckDB's `//` agree on its window and bucket. Java and DuckDB's RE2
    * read it alike.
    */
  val logLinePattern: String =
    """^ts=\d{1,15} tenant=t\d+ job=j\d+ lat_ms=\d{1,15} cpu=\d{1,15}(\.\d+)? mem=\d{1,15}\z"""

  /** Filter predicate of LogAnalytics: the lines [[logParse]] can parse. */
  def logFilter(lines: DataFrame): DataFrame = lines.filter(col("raw").rlike(logLinePattern))

  /** The map operator: parse a raw line into JobStats fields and bucketize
    * latency into 100 ms bins, keeping the input columns named in `carry`.
    */
  def logParse(lines: DataFrame, carry: Seq[String] = Nil): DataFrame =
    lines.select(Seq(
      winCol(regexp_extract(col("raw"), "ts=(\\d+)", 1).cast(LongType)) as "win",
      regexp_extract(col("raw"), "tenant=(t\\d+)", 1) as "tenant",
      (regexp_extract(col("raw"), "lat_ms=(\\d+)", 1).cast(LongType) / 100)
        .cast(LongType) as "bucket",
      regexp_extract(col("raw"), "cpu=([\\d.]+)", 1).cast(DoubleType) as "cpu",
      regexp_extract(col("raw"), "mem=(\\d+)", 1).cast(LongType) as "mem",
    ) ++ carry.map(col): _*)

  def logFull(lines: DataFrame): DataFrame =
    logParse(logFilter(lines))
      .groupBy(col("win"), col("tenant"), col("bucket"))
      .agg(
        count(lit(1)) as "cnt",
        avg("cpu") as "avg_cpu",
        avg("mem") as "avg_mem",
      )

  /** The parsed lines of a table `logs(raw)` as a DuckDB CTE `parsed`. */
  private val logParsedSql: String =
    raw"""WITH parsed AS (
      |  SELECT CAST(regexp_extract(raw, 'ts=(\d+)', 1) AS BIGINT) // 10000 AS win,
      |         regexp_extract(raw, 'tenant=(t\d+)', 1) AS tenant,
      |         CAST(regexp_extract(raw, 'lat_ms=(\d+)', 1) AS BIGINT) // 100 AS bucket,
      |         CAST(regexp_extract(raw, 'cpu=([\d.]+)', 1) AS DOUBLE) AS cpu,
      |         CAST(regexp_extract(raw, 'mem=(\d+)', 1) AS BIGINT) AS mem
      |  FROM logs
      |  WHERE regexp_matches(raw, '$logLinePattern')
      |)
      |""".stripMargin

  /** Oracle SQL equivalent of [[logFull]] over a table `logs(raw)`. */
  val logSql: String = logParsedSql +
    """SELECT win, tenant, bucket, count(*) AS cnt,
      |       avg(cpu) AS avg_cpu, avg(mem) AS avg_mem
      |FROM parsed GROUP BY 1, 2, 3""".stripMargin

  // ------------------------------------------------------------------
  // LogAnalytics with an exact p95: W → F → M → P95(cpu) per (win, tenant),
  // the non-incremental aggregate of placement rule R-1 (§IV-B)
  // ------------------------------------------------------------------

  /** The exact 95th percentile of `cpu` per window and tenant, interpolated
    * linearly between the closest ranks.
    */
  def cpuP95(parsed: DataFrame): DataFrame =
    parsed.groupBy(col("win"), col("tenant")).agg(percentile(col("cpu"), lit(0.95)) as "p95_cpu")

  def logP95Full(lines: DataFrame): DataFrame = cpuP95(logParse(logFilter(lines)))

  /** Oracle SQL equivalent of [[logP95Full]] over a table `logs(raw)`. */
  val logP95Sql: String = logParsedSql +
    """SELECT win, tenant, quantile_cont(cpu, 0.95) AS p95_cpu
      |FROM parsed GROUP BY 1, 2""".stripMargin
}
