package repro.dataflow

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Window-based sampling protocol (WSP) — the data-synopsis baseline of
  * §VI-D (Cormode et al., continuous sampling from distributed streams).
  *
  * Each data source forwards every record independently with probability
  * `rate`; the stream processor estimates per-(srcIp, dstIp, window) probe
  * latency statistics from the sample. Accuracy is measured as the error in
  * the estimated latency *range* (max − min) against the exact result, plus
  * the alert-recall metric of Scenario 1 (alert when max RTT exceeds 5 ms).
  */
object Wsp {

  /** Scenario 1's alert threshold on a pair-window's max RTT, in ms. */
  private val AlertMs = 5.0

  /** Seed of the sampling draw, independent of the load factors' draw. */
  private val SampleSeed = 131L

  /** Exact per-pair-window latency stats (the lossless reference), from
    * [[Queries.s2sFull]].
    */
  def trueStats(pings: DataFrame): DataFrame =
    Queries.s2sFull(pings)
      .select(col("win"), col("srcIp"), col("dstIp"), col("max_rtt") as "t_max", col("min_rtt") as "t_min")

  /** The same query over the records the sources forward at a sampling rate. */
  private def sampledStats(pings: DataFrame, rate: Double): DataFrame =
    Queries.s2sFull(pings.filter(PartitionedExec.uCol(col("recId"), SampleSeed) < rate))
      .select(col("win"), col("srcIp"), col("dstIp"), col("max_rtt") as "s_max", col("min_rtt") as "s_min",
        col("cnt") as "s_cnt")

  /** One row of the T4 table for a given sampling rate. */
  final case class SynopsisResult(
      samplingRate: Double,
      /** Fraction of pair-windows whose range-estimation error is ≤ 1 ms. */
      errLe1msPct: Double,
      /** Fraction of pair-windows whose range-estimation error is > 5 ms. */
      errGt5msPct: Double,
      /** Fraction of true alerts (max RTT > threshold) the sample missed. */
      missedAlertPct: Double,
      /** Network transfer as a fraction of the input rate. */
      netPctOfInput: Double,
      trueAlerts: Long,
      pairWindows: Long,
  )

  /** Evaluate WSP at one sampling rate. */
  def evaluate(pings: DataFrame, rate: Double): SynopsisResult = {
    val t = trueStats(pings)
    val s = sampledStats(pings, rate)
    val joined = t.join(s, Seq("win", "srcIp", "dstIp"), "left_outer")
      .select(
        col("t_max"), col("t_min"),
        coalesce(col("s_max"), lit(0.0)) as "e_max",
        coalesce(col("s_min"), col("t_max")) as "e_min",
        col("s_cnt").isNull as "missedPw",
      )
      .select(
        abs((col("t_max") - col("t_min")) -
          when(col("missedPw"), lit(0.0)).otherwise(col("e_max") - col("e_min"))) as "rangeErr",
        (col("t_max") > AlertMs) as "trueAlert",
        (!col("missedPw") && col("e_max") > AlertMs) as "estAlert",
      )
    val row = joined
      .select(
        count(lit(1)) as "n",
        sum(when(col("rangeErr") <= 1.0, 1L).otherwise(0L)) as "le1",
        sum(when(col("rangeErr") > 5.0, 1L).otherwise(0L)) as "gt5",
        sum(when(col("trueAlert"), 1L).otherwise(0L)) as "alerts",
        sum(when(col("trueAlert") && !col("estAlert"), 1L).otherwise(0L)) as "missed",
      )
      .collect()(0)
    def l(i: Int): Long = Option(row.get(i)).map(_.toString.toLong).getOrElse(0L)
    val n = math.max(1L, l(0))
    val alerts = l(3)
    SynopsisResult(
      samplingRate = rate,
      errLe1msPct = 100.0 * l(1) / n,
      errGt5msPct = 100.0 * l(2) / n,
      missedAlertPct = if (alerts == 0) 0.0 else 100.0 * l(4) / alerts,
      netPctOfInput = 100.0 * rate,
      trueAlerts = alerts,
      pairWindows = n,
    )
  }
}
