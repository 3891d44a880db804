package repro.dataflow

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.model.Calibration

/** Synthetic monitoring streams substituting for the paper's production
  * traces (DESIGN.md §2): a Pingmesh-like probe stream and a Helios-like
  * text log stream. Deterministic in (params, seed) so the DuckDB oracle
  * sees identical input.
  */
object MonitoringData {

  /** Epoch length (paper §IV-C: 1 s). */
  val EpochMs: Long = (Calibration.EpochSeconds * 1000).toLong

  /** Window length of the monitoring queries (Listing 1: 10 s). */
  val WindowMs: Long = Calibration.WindowEpochs * EpochMs

  /** Fraction of probes with errCode ≠ 0: what S2SProbe's filter drops. */
  private val ErrRate: Double = 1 - Calibration.S2SFilterKeep

  /** Fraction of log lines malformed: what LogAnalytics' filter drops. */
  private val MalformedRate: Double = 1 - Calibration.LogFilterKeep

  /** Pingmesh-like probe records (§II-B1): 86-byte records with timestamp,
    * src/dst IP and cluster, RTT and error code. The RTT distribution has a
    * sub-millisecond body with sparse multi-millisecond spikes confined to
    * a few (src, dst, window) triples — exactly the sparsity that makes
    * sampling miss anomalies (§VI-D).
    *
    * @param nSources        data source nodes (srcIp ∈ [0, nSources))
    * @param nPeers          probe fan-out per source (dstIp ∈ [0, nPeers))
    * @param nEpochs         1-second epochs of data to generate
    * @param probesPerEpoch  probes each source sends per epoch
    * @param anomalyPairRate fraction of (src,dst,window) triples with latency
    *                        spikes
    */
  def pingmesh(
      spark: SparkSession,
      nSources: Int,
      nPeers: Int,
      nEpochs: Int,
      probesPerEpoch: Int = 4,
      anomalyPairRate: Double = 0.02,
      seed: Long = 11L,
  ): DataFrame = {
    val rows = nSources.toLong * nEpochs * probesPerEpoch
    val df = spark.range(rows).select(
      col("id") as "recId",
      (col("id") % nSources) as "srcIp",
      ((col("id") / nSources).cast(LongType) % nEpochs) as "epoch",
    )
    df.select(
        col("recId"),
        col("srcIp"),
        (col("epoch") * EpochMs + pmod(xxhash64(col("recId"), lit(seed)), lit(EpochMs))) as "ts",
        pmod(xxhash64(col("recId"), lit(seed + 1)), lit(nPeers.toLong)) as "dstIp",
        (col("srcIp") / 10).cast(LongType) as "srcCluster",
        col("epoch"),
      )
      .select(
        col("recId"), col("ts"), col("srcIp"), col("dstIp"),
        col("srcCluster"),
        (col("dstIp") / 10).cast(LongType) as "dstCluster",
        {
          // Base RTT: 0.2–3.0 ms body (wide enough that a lost probe shifts
          // the per-pair range estimate by >1 ms, as in §VI-D); anomalous
          // pair-windows add 5–50 ms spikes to ~70 % of their probes (a
          // network issue on a path affects most of its probes).
          val base = lit(0.2) +
            pmod(xxhash64(col("recId"), lit(seed + 2)), lit(1000L)) / lit(1000.0) * lit(2.8)
          val win = (col("ts") / WindowMs).cast(LongType)
          val pairWindowDraw =
            pmod(xxhash64(col("srcIp"), col("dstIp"), win, lit(seed + 3)), lit(100000L))
          val isAnomalousPw = pairWindowDraw < lit((anomalyPairRate * 100000).toLong)
          val recSpikeDraw = pmod(xxhash64(col("recId"), lit(seed + 4)), lit(1000L))
          val spike = lit(5.0) +
            pmod(xxhash64(col("recId"), lit(seed + 5)), lit(1000L)) / lit(1000.0) * lit(45.0)
          round(when(isAnomalousPw && recSpikeDraw < 700, base + spike).otherwise(base), 4)
        } as "rtt",
        when(
          pmod(xxhash64(col("recId"), lit(seed + 6)), lit(1000L)) < lit((ErrRate * 1000).toLong),
          pmod(xxhash64(col("recId"), lit(seed + 7)), lit(3L)).cast(IntegerType) + 1,
        ).otherwise(0) as "errCode",
      )
  }

  /** Static IP → ToR-switch map for the T2TProbe join (Listing 2's table m).
    * Covers both source and destination IP ranges.
    */
  def torMap(spark: SparkSession, nIps: Int, ipsPerTor: Int = 10): DataFrame =
    spark.range(nIps).select(
      col("id") as "ip",
      (col("id") / ipsPerTor).cast(LongType) as "tor",
    )

  /** Raw Helios-like log lines (Listing 3): per-tenant analytics job latency
    * and resource utilization as unstructured text, with a fraction of
    * malformed lines that the filter drops (paper: low filter-out rate).
    */
  def logLines(
      spark: SparkSession,
      nSources: Int,
      nTenants: Int,
      nEpochs: Int,
      linesPerEpoch: Int = 8,
      seed: Long = 23L,
  ): DataFrame = {
    val rows = nSources.toLong * nEpochs * linesPerEpoch
    spark.range(rows)
      .select(
        col("id") as "recId",
        (col("id") % nSources) as "sourceId",
        ((col("id") / nSources).cast(LongType) % nEpochs * EpochMs +
          pmod(xxhash64(col("id"), lit(seed)), lit(EpochMs))) as "ts",
        pmod(xxhash64(col("id"), lit(seed + 1)), lit(nTenants.toLong)) as "tenant",
        pmod(xxhash64(col("id"), lit(seed + 2)), lit(3000L)) as "latMs",
        round(pmod(xxhash64(col("id"), lit(seed + 3)), lit(1000L)) / 10.0, 1) as "cpu",
        pmod(xxhash64(col("id"), lit(seed + 4)), lit(8192L)) as "mem",
        (pmod(xxhash64(col("id"), lit(seed + 5)), lit(1000L)) <
          lit((MalformedRate * 1000).toLong)) as "malformed",
      )
      .select(
        col("recId"),
        col("sourceId"),
        col("ts"),
        when(col("malformed"), concat(lit("!corrupt "), col("recId").cast(StringType)))
          .otherwise(concat(
            lit("ts="), col("ts"),
            lit(" tenant=t"), col("tenant"),
            lit(" job=j"), pmod(col("recId"), lit(997L)),
            lit(" lat_ms="), col("latMs"),
            lit(" cpu="), col("cpu"),
            lit(" mem="), col("mem"),
          )) as "raw",
      )
  }
}
