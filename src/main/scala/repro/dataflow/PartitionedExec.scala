package repro.dataflow

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.model.{Calibration, QuerySpec}

/** Data-level partitioned execution of the monitoring queries (paper §IV).
  *
  * A query is a [[Chain]] of M operators: M−1 stages that keep the draw `u`
  * of each record, then an aggregate split into a per-lane `partial` and a
  * `merge` of all partials (count/sum/min/max merge losslessly — rule R-1
  * of §IV-B). Each record draws a deterministic uniform `u ∈ [0,1)` from its
  * record id. The control proxy in front of operator i keeps the records
  * with `u < e_i` on the local (source) lane and drains the rest to the
  * stream processor (SP), whose copy of the chain runs operators i..M on
  * them — the per-proxy drain paths of Fig. 5. Effective load factors are
  * non-increasing (`e_1 ≥ … ≥ e_M`), so one draw implements the whole chain
  * and a record drained at proxy i has `e_i ≤ u < e_{i-1}`.
  *
  * Only the operators the §IV-B planner puts behind a proxy
  * (`chain.spec.numProxies` of them) take a load factor. The SP-only rest
  * runs at `e = 0`: every record still local there is drained, so no local
  * lane reaches an SP-only operator.
  *
  * The private `partitioned` builds every plan. Its load factors are
  * columns: constants for a global plan, per-record values looked up by
  * source key in one map literal for a per-source plan. The result is
  * identical to the unpartitioned query for every non-increasing `e` — the
  * losslessness Jarvis claims over data synopses — and the tests enforce
  * that with DataFrame and DuckDB oracles.
  *
  * The plans of the chain-level builders, [[global]] and [[perSource]],
  * count: each lane's input to operator i carries a record counter, the
  * proxy's counter of §IV-C, so the job that computes the result also
  * measures the rows entering every operator ([[operatorInputs]]). The
  * session runs without adaptive execution (`repro.jobs.JobSession`), so
  * the plan built here is the plan that runs and every counter in it
  * reports. A counter splits whole-stage code generation, so the query
  * wrappers [[s2s]], [[t2t]], [[log]] and [[s2sPerSource]], whose callers
  * read only the result, build the same lanes with no counter.
  */
object PartitionedExec {

  private val UScale = 1000000L

  /** Deterministic uniform draw in [0,1) per record. */
  def uCol(recId: Column, seed: Long = 77L): Column =
    pmod(xxhash64(recId, lit(seed)), lit(UScale)) / lit(UScale.toDouble)

  /** A monitoring query as one value: the Spark code Jarvis partitions and
    * the cost spec of the same operators. `stages(i)(df, carry)` runs
    * operator i+1 and keeps the input columns named in `carry`; `partial`
    * folds one lane into aggregation state and `merge` turns the union of
    * all lanes' states into the query's output. `spec` describes operator i
    * as `spec.ops(i)`; its plan decides how many of them are proxied.
    */
  final case class Chain(
      stages: Seq[(DataFrame, Seq[String]) => DataFrame],
      partial: DataFrame => DataFrame,
      merge: DataFrame => DataFrame,
      spec: QuerySpec,
  ) {
    require(stages.length + 1 == spec.numOps,
      s"chain has ${stages.length + 1} operators, spec ${spec.name} has ${spec.numOps}")
  }

  /** Build the partitioned plan of `chain` over `input` under effective
    * load factors `e`, one per proxied operator; the SP-only operators get
    * `lit(0.0)`. Every column of `input` that a load factor names travels
    * with `u` along the local lane.
    *
    * Column equality is structural, so a drain band between two equal
    * bounds (such as `lit(0.7)` twice) and a local lane below `lit(0.0)`
    * are known to be empty and are not built.
    *
    * If `counted`, right after the drain split in front of operator i, the
    * local lane is observed as `src<i>` and the SP lane as `sp<i>`: each
    * counts the lane's rows entering operator i.
    */
  private def partitioned(input: DataFrame, chain: Chain, e: Seq[Column], counted: Boolean): DataFrame = {
    val m = chain.spec.numProxies
    require(e.length == m, s"chain has $m proxies, got ${e.length} load factors")
    val u = col("u")
    val carry = "u" +: input.columns.filter(c => e.contains(col(c))).toSeq
    val bounds = (lit(1.0) +: e).padTo(chain.spec.numOps + 1, lit(0.0))
    var local: Option[DataFrame] = Some(input.withColumn("u", uCol(col("recId"))))
    var sp: Option[DataFrame] = None
    for (i <- 0 until chain.spec.numOps) {
      val (hi, lo) = (bounds(i), bounds(i + 1))
      if (hi != lo) {
        val drained = local.map(_.filter(u >= lo).drop(carry: _*))
        sp = (sp ++ drained).reduceOption(_ unionByName _)
        local = local.map(_.filter(u < lo))
      }
      if (lo == lit(0.0)) local = None
      if (counted) {
        local = local.map(_.observe(s"src$i", count(lit(1))))
        sp = sp.map(_.observe(s"sp$i", count(lit(1))))
      }
      if (i < chain.stages.length) {
        local = local.map(chain.stages(i)(_, carry))
        sp = sp.map(chain.stages(i)(_, Nil))
      }
    }
    chain.merge((local ++ sp).map(chain.partial).reduce(_ unionByName _))
  }

  /** N_0 … N_{M−1}: the rows that entered each operator of `chain` in the
    * last run of `plan`, a plan [[global]] or [[perSource]] built, read
    * from the run's `observedMetrics`. The plan is lossless, so N_i is the
    * sum of the counters `src<i>` and `sp<i>` of the lanes that exist.
    */
  def operatorInputs(plan: DataFrame, chain: Chain): Vector[Long] = {
    val observed = plan.queryExecution.observedMetrics
    Vector.tabulate(chain.spec.numOps)(i => Seq(s"src$i", s"sp$i").flatMap(observed.get).map(_.getLong(0)).sum)
  }

  /** Build a per-source plan: each data source runs its own independently
    * adapted plan (the fully decentralized runtimes of §IV-A). `key` names
    * the column of `input` that identifies the source. Sources absent from
    * `eBySource` drain everything (the Startup default). The plan carries
    * the lane counters [[operatorInputs]] reads.
    */
  def perSource(input: DataFrame, chain: Chain, key: String, eBySource: Map[Long, Seq[Double]]): DataFrame =
    perSourcePlan(input, chain, key, eBySource, counted = true)

  /** Each record looks its source's load factors up in one map literal, so
    * no plan table is shuffled against the records; a missing or null key
    * looks up as null and falls back to 0.0.
    */
  private def perSourcePlan(
      input: DataFrame,
      chain: Chain,
      key: String,
      eBySource: Map[Long, Seq[Double]],
      counted: Boolean,
  ): DataFrame = {
    eBySource.values.foreach(checkPlan(chain, _))
    val plans = typedLit(eBySource)
    val names = (1 to chain.spec.numProxies).map(i => s"e$i")
    val withE = input.select(input.columns.toSeq.map(col) ++
      names.indices.map(i => coalesce(element_at(plans, col(key))(i), lit(0.0)) as names(i)): _*)
    partitioned(withE, chain, names.map(col), counted)
  }

  /** Fault-tolerance path (paper §IV-E): a failing data source leaves
    * behind checkpointed partial aggregation state for the current window;
    * the stream processor runs the chain on the replayed (unprocessed)
    * records and merges both partial sets, so the recovered result equals
    * the failure-free query.
    *
    * @param checkpointed records the source had already folded into its
    *                     partial state before failing
    * @param replayed     records replayed raw to the SP after the failure
    */
  def recover(chain: Chain, checkpointed: DataFrame, replayed: DataFrame): DataFrame = {
    def state(records: DataFrame): DataFrame =
      chain.partial(chain.stages.foldLeft(records)((df, stage) => stage(df, Nil)))
    chain.merge(state(checkpointed).unionByName(state(replayed)))
  }

  private def checkPlan(chain: Chain, e: Seq[Double]): Unit = {
    val m = chain.spec.numProxies
    require(e.length == m, s"chain has $m proxies, got e=$e")
    require(e.forall(x => x >= 0 && x <= 1), s"load factors out of range: $e")
    require(e.zip(e.drop(1)).forall { case (a, b) => a >= b - 1e-12 },
      s"effective load factors must be non-increasing: $e")
  }

  /** Build the plan of `chain` over `input` under global effective load
    * factors `e`, after checking they form a plan. The plan carries the
    * lane counters [[operatorInputs]] reads.
    */
  def global(input: DataFrame, chain: Chain, e: Seq[Double]): DataFrame =
    globalPlan(input, chain, e, counted = true)

  private def globalPlan(input: DataFrame, chain: Chain, e: Seq[Double], counted: Boolean): DataFrame = {
    checkPlan(chain, e)
    partitioned(input, chain, e.map(x => lit(x)), counted)
  }

  // ------------------------------------------------------------------
  // The monitoring queries as chains
  // ------------------------------------------------------------------

  private def rttPartial(keys: Column*)(records: DataFrame): DataFrame =
    records.groupBy(keys: _*)
      .agg(
        count(lit(1)) as "p_cnt",
        count("rtt") as "p_rtt_cnt",
        sum("rtt") as "p_sum",
        max("rtt") as "p_max",
        min("rtt") as "p_min",
      )

  /** `avg_rtt` averages the records that have an `rtt`, as `avg` does, and
    * is null for a group with none; `cnt` counts every record.
    */
  private def rttMerge(keys: String*)(partials: DataFrame): DataFrame =
    partials
      .groupBy(keys.map(col): _*)
      .agg(
        sum("p_cnt") as "cnt",
        sum("p_rtt_cnt") as "rtt_cnt",
        sum("p_sum") as "s_sum",
        max("p_max") as "max_rtt",
        min("p_min") as "min_rtt",
      )
      .select(keys.map(col) ++ Seq(
        try_divide(col("s_sum"), col("rtt_cnt")) as "avg_rtt",
        col("max_rtt"), col("min_rtt"), col("cnt"),
      ): _*)

  private def logPartial(parsed: DataFrame): DataFrame =
    parsed
      .groupBy(col("win"), col("tenant"), col("bucket"))
      .agg(
        count(lit(1)) as "p_cnt",
        sum("cpu") as "p_sum_cpu",
        sum("mem") as "p_sum_mem",
      )

  private def logMerge(partials: DataFrame): DataFrame =
    partials
      .groupBy(col("win"), col("tenant"), col("bucket"))
      .agg(
        sum("p_cnt") as "cnt",
        sum("p_sum_cpu") as "s_cpu",
        sum("p_sum_mem") as "s_mem",
      )
      .select(
        col("win"), col("tenant"), col("bucket"), col("cnt"),
        (col("s_cpu") / col("cnt")) as "avg_cpu",
        (col("s_mem") / col("cnt")) as "avg_mem",
      )

  /** S2SProbe: F → G+R; the output matches [[Queries.s2sFull]]. */
  val s2sChain: Chain = Chain(
    Seq((df, _) => Queries.pingFilter(df)),
    rttPartial(Queries.winCol(col("ts")) as "win", col("srcIp"), col("dstIp")),
    rttMerge("win", "srcIp", "dstIp"),
    Calibration.s2sProbe,
  )

  /** T2TProbe: F → J → G+R; the output matches [[Queries.t2tFull]]. The
    * static ToR table is available on both sides, as in the paper.
    */
  def t2tChain(tor: DataFrame): Chain = Chain(
    Seq((df, _) => Queries.pingFilter(df), Queries.torJoin(_, tor, _)),
    rttPartial(col("win"), col("srcTor"), col("dstTor")),
    rttMerge("win", "srcTor", "dstTor"),
    Calibration.t2tProbe(),
  )

  /** LogAnalytics: F → M → G+R; the output matches [[Queries.logFull]]. */
  val logChain: Chain = Chain(
    Seq((df, _) => Queries.logFilter(df), Queries.logParse),
    logPartial,
    logMerge,
    Calibration.logAnalytics,
  )

  /** LogAnalytics with an exact p95: F → M → P95; the output matches
    * [[Queries.logP95Full]]. The percentile does not merge, so the planner
    * keeps it on the SP: `partial` only projects and `merge` computes it.
    */
  val logP95Chain: Chain = Chain(
    Seq((df, _) => Queries.logFilter(df), Queries.logParse),
    _.select("win", "tenant", "cpu"),
    Queries.cpuP95,
    Calibration.logP95,
  )

  /** S2SProbe under global effective load factors `(e1, e2)`. */
  def s2s(pings: DataFrame, e: Seq[Double]): DataFrame =
    globalPlan(pings, s2sChain, e, counted = false)

  /** T2TProbe under global effective load factors `(e1, e2, e3)`. */
  def t2t(pings: DataFrame, tor: DataFrame, e: Seq[Double]): DataFrame =
    globalPlan(pings, t2tChain(tor), e, counted = false)

  /** LogAnalytics under global effective load factors `(e1, e2, e3)`. */
  def log(lines: DataFrame, e: Seq[Double]): DataFrame =
    globalPlan(lines, logChain, e, counted = false)

  /** S2SProbe with per-source effective load factors `(e1, e2)`, keyed by
    * `srcIp`.
    */
  def s2sPerSource(pings: DataFrame, eBySource: Map[Long, (Double, Double)]): DataFrame =
    perSourcePlan(pings, s2sChain, "srcIp", eBySource.map { case (s, (e1, e2)) => s -> Seq(e1, e2) },
      counted = false)
}
