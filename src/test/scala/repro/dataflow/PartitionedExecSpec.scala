package repro.dataflow

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.aggregate.Percentile
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.core.model.Calibration
import repro.{DfCompare, Oracle, PropHelpers, SparkSpec}

/** Losslessness of data-level partitioned execution (paper §II-B1, §VI-D):
  * for every monotone effective-load-factor vector the partitioned plan
  * (source partial operators before the shuffle + SP-side completion) must
  * produce *exactly* the rows of the unpartitioned query.
  */
class PartitionedExecSpec extends SparkSpec {

  private lazy val pings = MonitoringData.pingmesh(spark, nSources = 5, nPeers = 18,
    nEpochs = 21, probesPerEpoch = 3).cache()
  private lazy val tor = MonitoringData.torMap(spark, 32, ipsPerTor = 8).cache()
  private lazy val lines = MonitoringData.logLines(spark, nSources = 4, nTenants = 6,
    nEpochs = 21, linesPerEpoch = 5).cache()

  private lazy val s2sRef = Queries.s2sFull(pings).cache()
  private lazy val t2tRef = Queries.t2tFull(pings, tor).cache()
  private lazy val logRef = Queries.logFull(lines).cache()
  private lazy val logP95Ref = Queries.logP95Full(lines).cache()

  // ------------------------------------------------------------------
  // S2SProbe
  // ------------------------------------------------------------------

  private val s2sGrid = Seq(
    Seq(0.0, 0.0),   // All-SP
    Seq(1.0, 1.0),   // All-Src
    Seq(1.0, 0.0),   // Filter-Src / Best-OP below 85%
    Seq(0.7, 0.7),   // LP optimum at 60% budget
    Seq(1.0, 0.65),  // filter-first data-level plan
    Seq(0.5, 0.2),   // arbitrary interior plan
    Seq(0.86, 0.33),
  )

  for (e <- s2sGrid)
    test(s"S2SProbe partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(PartitionedExec.s2s(pings, e), s2sRef, s"s2s e=$e")
    }

  test("S2SProbe partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(PartitionedExec.s2s(pings, Seq(0.7, 0.7)), Queries.s2sSql,
      "pings" -> pings)
  }

  test("S2SProbe property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
    } yield Seq(e1, e2)
    for (e <- PropHelpers.samples(gen, 6, seed = 31L))
      DfCompare.assertSameRows(PartitionedExec.s2s(pings, e), s2sRef, s"s2s random e=$e")
  }

  test("S2SProbe rejects non-monotone load factors") {
    intercept[IllegalArgumentException] { PartitionedExec.s2s(pings, Seq(0.3, 0.6)) }
  }

  test("S2SProbe rejects out-of-range load factors") {
    intercept[IllegalArgumentException] { PartitionedExec.s2s(pings, Seq(1.2, 0.5)) }
  }

  test("S2SProbe lanes partition the input exactly") {
    val e = Seq(0.6, 0.25)
    val u = PartitionedExec.uCol(col("recId"))
    val tagged = pings.withColumn("u", u)
    val lane0 = tagged.filter(col("u") >= e.head).count()
    val lane1 = tagged.filter(col("u") < e.head && col("u") >= e(1)).count()
    val lane2 = tagged.filter(col("u") < e(1)).count()
    assert(lane0 + lane1 + lane2 == pings.count())
    // The split fractions track the load factors.
    val n = pings.count().toDouble
    assert(math.abs(lane2 / n - 0.25) < 0.03, s"local fraction ${lane2 / n}")
  }

  // ------------------------------------------------------------------
  // Per-source plans (decentralized runtimes, §IV-A)
  // ------------------------------------------------------------------

  test("per-source plans: heterogeneous load factors are lossless") {
    val plans = Map(
      0L -> (1.0, 1.0),   // rich source: everything local
      1L -> (0.0, 0.0),   // poor source: everything drained
      2L -> (0.7, 0.7),   // LP interior plan
      3L -> (1.0, 0.33),  // filter-first plan
      4L -> (0.5, 0.1),
    )
    DfCompare.assertSameRows(PartitionedExec.s2sPerSource(pings, plans), s2sRef, "per-source")
  }

  test("per-source plans: sources missing from the map default to All-SP") {
    val plans = Map(0L -> (1.0, 1.0)) // sources 1..4 unmapped
    DfCompare.assertSameRows(PartitionedExec.s2sPerSource(pings, plans), s2sRef,
      "per-source defaults")
  }

  test("per-source plans match DuckDB directly") {
    val plans = Map(0L -> (0.9, 0.4), 1L -> (0.2, 0.2), 2L -> (1.0, 0.0))
    Oracle.assertEquivalent(PartitionedExec.s2sPerSource(pings, plans), Queries.s2sSql,
      "pings" -> pings)
  }

  test("per-source plans reject non-monotone vectors") {
    intercept[IllegalArgumentException] {
      PartitionedExec.s2sPerSource(pings, Map(0L -> (0.2, 0.8)))
    }
  }

  test("T2TProbe per-source plans: heterogeneous load factors are lossless") {
    val plans = Map(
      0L -> Seq(1.0, 1.0, 1.0),   // everything local
      1L -> Seq(0.0, 0.0, 0.0),   // everything drained
      2L -> Seq(1.0, 0.5, 0.5),   // J on half the filtered stream
      3L -> Seq(0.8, 0.6, 0.2),   // source 4 unmapped
    )
    DfCompare.assertSameRows(
      PartitionedExec.perSource(pings, PartitionedExec.t2tChain(tor), "srcIp", plans), t2tRef,
      "t2t per-source")
  }

  test("T2TProbe per-source plans: sources missing from the map default to All-SP") {
    val plans = Map(2L -> Seq(1.0, 1.0, 0.3)) // sources 0, 1, 3, 4 unmapped
    DfCompare.assertSameRows(
      PartitionedExec.perSource(pings, PartitionedExec.t2tChain(tor), "srcIp", plans), t2tRef,
      "t2t per-source defaults")
  }

  test("T2TProbe per-source plans match DuckDB directly") {
    val plans = Map(0L -> Seq(0.9, 0.6, 0.3), 1L -> Seq(1.0, 0.2, 0.0), 3L -> Seq(1.0, 1.0, 1.0))
    Oracle.assertEquivalent(
      PartitionedExec.perSource(pings, PartitionedExec.t2tChain(tor), "srcIp", plans),
      Queries.t2tSql, "pings" -> pings, "tormap" -> tor)
  }

  test("LogAnalytics per-source plans: heterogeneous load factors are lossless") {
    val plans = Map(
      0L -> Seq(1.0, 1.0, 1.0),
      1L -> Seq(0.7, 0.5, 0.1),
      2L -> Seq(1.0, 1.0, 0.0),   // source 3 unmapped
    )
    DfCompare.assertSameRows(
      PartitionedExec.perSource(lines, PartitionedExec.logChain, "sourceId", plans), logRef,
      "log per-source")
  }

  test("LogAnalytics per-source plans: sources missing from the map default to All-SP") {
    val plans = Map(1L -> Seq(1.0, 0.4, 0.4)) // sources 0, 2, 3 unmapped
    DfCompare.assertSameRows(
      PartitionedExec.perSource(lines, PartitionedExec.logChain, "sourceId", plans), logRef,
      "log per-source defaults")
  }

  // ------------------------------------------------------------------
  // T2TProbe
  // ------------------------------------------------------------------

  private val t2tGrid = Seq(
    Seq(0.0, 0.0, 0.0),
    Seq(1.0, 1.0, 1.0),
    Seq(1.0, 0.0, 0.0),   // Best-OP: F only
    Seq(1.0, 0.5, 0.5),   // J on half the filtered stream
    Seq(0.8, 0.6, 0.2),
  )

  for (e <- t2tGrid)
    test(s"T2TProbe partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(PartitionedExec.t2t(pings, tor, e), t2tRef, s"t2t e=$e")
    }

  test("T2TProbe partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(PartitionedExec.t2t(pings, tor, Seq(1.0, 0.5, 0.5)), Queries.t2tSql,
      "pings" -> pings, "tormap" -> tor)
  }

  test("T2TProbe property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
      e3 <- Gen.choose(0.0, e2)
    } yield Seq(e1, e2, e3)
    for (e <- PropHelpers.samples(gen, 4, seed = 37L))
      DfCompare.assertSameRows(PartitionedExec.t2t(pings, tor, e), t2tRef, s"t2t random e=$e")
  }

  // ------------------------------------------------------------------
  // LogAnalytics
  // ------------------------------------------------------------------

  private val logGrid = Seq(
    Seq(0.0, 0.0, 0.0),
    Seq(1.0, 1.0, 1.0),
    Seq(1.0, 1.0, 0.0),   // Best-OP: F+M at the source
    Seq(1.0, 0.4, 0.4),
    Seq(0.7, 0.5, 0.1),
  )

  for (e <- logGrid)
    test(s"LogAnalytics partitioned == full at e=${e.mkString("(", ",", ")")}") {
      DfCompare.assertSameRows(PartitionedExec.log(lines, e), logRef, s"log e=$e")
    }

  test("LogAnalytics partitioned matches DuckDB directly at an interior plan") {
    Oracle.assertEquivalent(PartitionedExec.log(lines, Seq(1.0, 0.4, 0.4)), Queries.logSql,
      "logs" -> lines.select("raw"))
  }

  test("LogAnalytics property: random monotone plans are lossless") {
    val gen = for {
      e1 <- Gen.choose(0.0, 1.0)
      e2 <- Gen.choose(0.0, e1)
      e3 <- Gen.choose(0.0, e2)
    } yield Seq(e1, e2, e3)
    for (e <- PropHelpers.samples(gen, 4, seed = 41L))
      DfCompare.assertSameRows(PartitionedExec.log(lines, e), logRef, s"log random e=$e")
  }

  // ------------------------------------------------------------------
  // LogAnalytics with an exact p95: the planner keeps the percentile on the
  // SP (R-1), so F and M take the two load factors
  // ------------------------------------------------------------------

  private val levels = Seq(0.0, 0.35, 0.7, 1.0)
  /** Every non-increasing vector of `m` load factors over `levels`. */
  private def grid(m: Int): Seq[Seq[Double]] =
    if (m == 0) Seq(Nil) else for (e <- grid(m - 1); x <- levels if e.forall(x <= _)) yield e :+ x
  private val p95Grid = grid(2)

  for (e <- p95Grid)
    test(s"LogAnalytics p95 partitioned == full and DuckDB at e=${e.mkString("(", ",", ")")}") {
      val plan = PartitionedExec.global(lines, PartitionedExec.logP95Chain, e)
      DfCompare.assertSameRows(plan, logP95Ref, s"log p95 e=$e")
      Oracle.assertEquivalent(plan, Queries.logP95Sql, "logs" -> lines.select("raw"))
    }

  test("LogAnalytics p95 takes one load factor per proxy, not per operator") {
    assert(PartitionedExec.logP95Chain.spec.numProxies == 2)
    intercept[IllegalArgumentException] {
      PartitionedExec.global(lines, PartitionedExec.logP95Chain, Seq(1.0, 1.0, 1.0))
    }
  }

  test("a chain rejects a spec with another operator count") {
    intercept[IllegalArgumentException] { PartitionedExec.s2sChain.copy(spec = Calibration.logAnalytics) }
  }

  test("LogAnalytics p95 per-source plans are lossless, mapped and unmapped sources") {
    val plans = Map(0L -> Seq(1.0, 1.0), 1L -> Seq(0.7, 0.35), 2L -> Seq(1.0, 0.0)) // source 3 unmapped
    val plan = PartitionedExec.perSource(lines, PartitionedExec.logP95Chain, "sourceId", plans)
    DfCompare.assertSameRows(plan, logP95Ref, "log p95 per-source")
    Oracle.assertEquivalent(plan, Queries.logP95Sql, "logs" -> lines.select("raw"))
  }

  test("LogAnalytics p95 source failure mid-window: checkpointed records + replay recover exactly") {
    val failAtMs = 10500L
    DfCompare.assertSameRows(PartitionedExec.recover(PartitionedExec.logP95Chain,
      lines.filter(col("ts") < failAtMs), lines.filter(col("ts") >= failAtMs)), logP95Ref, "log p95 recovery")
  }

  // ------------------------------------------------------------------
  // Per-source plans on edge-case inputs
  // ------------------------------------------------------------------

  /** A query's chain, input, source key, full query, and a rewrite of its
    * input that the filter drops entirely.
    */
  private def edgeCase(q: String): (PartitionedExec.Chain, DataFrame, String, DataFrame => DataFrame,
                                    DataFrame => DataFrame) = {
    val badPing = (b: DataFrame) => b.withColumn("errCode", lit(1))
    val badLine = (b: DataFrame) => b.withColumn("raw", concat(lit("!corrupt "), col("recId")))
    q match {
      case "S2SProbe" => (PartitionedExec.s2sChain, pings, "srcIp", Queries.s2sFull, badPing)
      case "T2TProbe" => (PartitionedExec.t2tChain(tor), pings, "srcIp", Queries.t2tFull(_, tor), badPing)
      case "LogAnalytics" => (PartitionedExec.logChain, lines, "sourceId", Queries.logFull, badLine)
      case "LogAnalytics p95" => (PartitionedExec.logP95Chain, lines, "sourceId", Queries.logP95Full, badLine)
    }
  }

  for (q <- Seq("S2SProbe", "T2TProbe", "LogAnalytics", "LogAnalytics p95"))
    test(s"$q per-source plans on an empty or fully filtered input equal the full query") {
      val (chain, input, key, full, dropAll) = edgeCase(q)
      val m = chain.spec.numProxies
      val mapped = Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i)) // others unmapped
      for ((what, in) <- Seq("empty" -> input.where(lit(false)), "filtered" -> dropAll(input));
           (how, plans) <- Seq("mapped" -> mapped, "unmapped" -> Map.empty[Long, Seq[Double]])) {
        val plan = PartitionedExec.perSource(in, chain, key, plans)
        DfCompare.assertSameRows(plan, full(in), s"$q $what $how")
        assert(plan.count() == 0, s"$q $what $how")
      }
    }

  // ------------------------------------------------------------------
  // Null rtt: the average is over the records that have one
  // ------------------------------------------------------------------

  /** Pings where every third record and every record to a ToR-0 ip have a
    * null `rtt`: some groups average fewer records than they count, and
    * some average none.
    */
  private lazy val nullPings = pings
    .withColumn("rtt", when(pmod(col("recId"), lit(3)) === 0 || col("dstIp") < 8, lit(null)).otherwise(col("rtt")))
    .cache()

  for (q <- Seq("S2SProbe", "T2TProbe"))
    test(s"$q with some null rtt equals the full query and DuckDB at every plan and per source") {
      val (chain, full, sql) = q match {
        case "S2SProbe" => (PartitionedExec.s2sChain, Queries.s2sFull(nullPings), Queries.s2sSql)
        case "T2TProbe" => (PartitionedExec.t2tChain(tor), Queries.t2tFull(nullPings, tor), Queries.t2tSql)
      }
      val tables = Seq("pings" -> nullPings, "tormap" -> tor)
      Oracle.assertEquivalent(full, sql, tables: _*)
      assert(full.where(col("avg_rtt").isNull).count() > 0, "some group should have no rtt")
      val m = chain.spec.numProxies
      val perSource = Seq(Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i)), Map.empty[Long, Seq[Double]])
      val plans = grid(m).map(e => s"e=$e" -> PartitionedExec.global(nullPings, chain, e)) ++
        perSource.map(p => s"per-source $p" -> PartitionedExec.perSource(nullPings, chain, "srcIp", p))
      for ((what, plan) <- plans) {
        DfCompare.assertSameRows(plan, full, s"$q null rtt $what")
        Oracle.assertEquivalent(plan, sql, tables: _*)
      }
    }

  // ------------------------------------------------------------------
  // NaN rtt: it propagates through sum and max, and min skips it
  // ------------------------------------------------------------------

  /** Pings where every seventh record from source 1 has a NaN `rtt`: those
    * groups average and peak at NaN while their minimum stays a number, and
    * the other sources' groups have no NaN.
    */
  private lazy val nanPings = pings
    .withColumn("rtt", when(col("srcIp") === 1 && pmod(col("recId"), lit(7)) === 0, lit(Double.NaN))
      .otherwise(col("rtt")))
    .cache()

  for (q <- Seq("S2SProbe", "T2TProbe"))
    test(s"$q with some NaN rtt equals the full query and DuckDB at every plan and per source") {
      val (chain, full, sql) = q match {
        case "S2SProbe" => (PartitionedExec.s2sChain, Queries.s2sFull(nanPings), Queries.s2sSql)
        case "T2TProbe" => (PartitionedExec.t2tChain(tor), Queries.t2tFull(nanPings, tor), Queries.t2tSql)
      }
      val tables = Seq("pings" -> nanPings, "tormap" -> tor)
      Oracle.assertEquivalent(full, sql, tables: _*)
      assert(full.where(isnan(col("avg_rtt")) && isnan(col("max_rtt")) && !isnan(col("min_rtt"))).count() > 0,
        "some group should average and peak at NaN")
      assert(full.where(!isnan(col("avg_rtt"))).count() > 0, "some group should have no NaN")
      val m = chain.spec.numProxies
      val perSource = Seq(Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i)), Map.empty[Long, Seq[Double]])
      val plans = grid(m).map(e => s"e=$e" -> PartitionedExec.global(nanPings, chain, e)) ++
        perSource.map(p => s"per-source $p" -> PartitionedExec.perSource(nanPings, chain, "srcIp", p))
      for ((what, plan) <- plans) {
        DfCompare.assertSameRows(plan, full, s"$q NaN rtt $what")
        Oracle.assertEquivalent(plan, sql, tables: _*)
      }
    }

  // ------------------------------------------------------------------
  // Lane counters: the result job measures N_0 … N_{M−1}
  // ------------------------------------------------------------------

  /** A query's chain, input, source key, full result, and the inputs of its
    * operators built from the `Queries` stages alone.
    */
  private def counted(q: String): (PartitionedExec.Chain, DataFrame, String, DataFrame, Seq[DataFrame]) = {
    val filteredPings = Queries.pingFilter(pings)
    val filteredLines = Queries.logFilter(lines)
    val logInputs = Seq(lines, filteredLines, Queries.logParse(filteredLines))
    q match {
      case "S2SProbe" => (PartitionedExec.s2sChain, pings, "srcIp", s2sRef, Seq(pings, filteredPings))
      case "T2TProbe" => (PartitionedExec.t2tChain(tor), pings, "srcIp", t2tRef,
        Seq(pings, filteredPings, Queries.torJoin(filteredPings, tor)))
      case "LogAnalytics" => (PartitionedExec.logChain, lines, "sourceId", logRef, logInputs)
      case "LogAnalytics p95" => (PartitionedExec.logP95Chain, lines, "sourceId", logP95Ref, logInputs)
    }
  }

  for (q <- Seq("S2SProbe", "T2TProbe", "LogAnalytics", "LogAnalytics p95"))
    test(s"$q lane counters add up to the rows entering each operator, at every plan and per source") {
      val (chain, input, key, full, inputs) = counted(q)
      val n = inputs.map(_.count())
      val m = chain.spec.numProxies
      // A load factor equal to a record's exact draw: that record is drained.
      val onU = input.select(PartitionedExec.uCol(col("recId"))).head().getDouble(0)
      val mapped = Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i), 2L -> Seq.fill(m)(onU))
      val plans = (grid(m) :+ Seq.fill(m)(onU)).map(e => s"e=$e" -> PartitionedExec.global(input, chain, e)) ++
        Seq(mapped, Map.empty[Long, Seq[Double]]).map(p => s"per-source $p" -> PartitionedExec.perSource(input, chain, key, p))
      for ((what, plan) <- plans) {
        DfCompare.assertSameRows(plan, full, s"$q $what")
        assert(PartitionedExec.operatorInputs(plan, chain) == n, s"$q $what")
      }
    }

  test("the query wrappers' plans carry no lane counter and equal the full query") {
    val plans = Seq(
      ("s2s at the LP plan", PartitionedExec.s2s(pings, Seq(0.7, 0.7)), s2sRef),
      ("t2t at an interior plan", PartitionedExec.t2t(pings, tor, Seq(1.0, 0.5, 0.5)), t2tRef),
      ("log at an interior plan", PartitionedExec.log(lines, Seq(1.0, 0.4, 0.4)), logRef),
    ) ++ Seq(Map(0L -> (1.0, 1.0), 1L -> (0.7, 0.4)), Map.empty[Long, (Double, Double)]).map(p =>
      (s"s2sPerSource $p", PartitionedExec.s2sPerSource(pings, p), s2sRef))
    for ((what, plan, full) <- plans) {
      DfCompare.assertSameRows(plan, full, what)
      assert(plan.queryExecution.observedMetrics.isEmpty, what)
    }
  }

  // ------------------------------------------------------------------
  // Duplicate recIds: records that share one share their draw u
  // ------------------------------------------------------------------

  for (q <- Seq("S2SProbe", "T2TProbe", "LogAnalytics", "LogAnalytics p95"))
    test(s"$q on an input with every recId twice equals the full query and counts every copy") {
      val (chain, input, key, full, _) = edgeCase(q)
      val twice = input.unionByName(input)
      val ref = full(twice).cache()
      val n = chain.stages.scanLeft(twice)((df, stage) => stage(df, Nil)).map(_.count())
      assert(n.head == 2 * input.count())
      val m = chain.spec.numProxies
      val mapped = Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i)) // others unmapped
      val plans = grid(m).map(e => s"e=$e" -> PartitionedExec.global(twice, chain, e)) ++
        Seq(mapped, Map.empty[Long, Seq[Double]]).map(p => s"per-source $p" -> PartitionedExec.perSource(twice, chain, key, p))
      for ((what, plan) <- plans) {
        DfCompare.assertSameRows(plan, ref, s"$q twice $what")
        assert(PartitionedExec.operatorInputs(plan, chain) == n, s"$q twice $what")
      }
      ref.unpersist()
    }

  // ------------------------------------------------------------------
  // Fault tolerance (§IV-E): checkpointed partial state + replay
  // ------------------------------------------------------------------

  test("source failure mid-window: checkpointed partials + replayed records recover exactly") {
    // A data source dies halfway through the second window. The records it
    // had already aggregated survive as checkpointed partial state
    // (count/sum/min/max merge losslessly); the unprocessed tail is
    // replayed raw to the SP, which aggregates it and merges both partial
    // sets. The recovered result equals the failure-free query.
    import org.apache.spark.sql.functions.col
    val failAtMs = 10500L
    val processedBeforeFailure = pings.filter(col("ts") < failAtMs)
    val replayedAfterFailure = pings.filter(col("ts") >= failAtMs)
    assert(processedBeforeFailure.count() > 0 && replayedAfterFailure.count() > 0)
    val recovered = PartitionedExec.recover(PartitionedExec.s2sChain,
      processedBeforeFailure, replayedAfterFailure)
    DfCompare.assertSameRows(recovered, s2sRef, "fault recovery")
  }

  test("recovery with an empty checkpoint degenerates to All-SP") {
    import org.apache.spark.sql.functions.lit
    val recovered = PartitionedExec.recover(PartitionedExec.s2sChain, pings.filter(lit(false)), pings)
    DfCompare.assertSameRows(recovered, s2sRef, "empty checkpoint")
  }

  test("T2TProbe source failure mid-window: checkpointed partials + replay recover exactly") {
    val failAtMs = 10500L
    val recovered = PartitionedExec.recover(PartitionedExec.t2tChain(tor),
      pings.filter(col("ts") < failAtMs), pings.filter(col("ts") >= failAtMs))
    DfCompare.assertSameRows(recovered, t2tRef, "t2t fault recovery")
  }

  test("LogAnalytics source failure mid-window: checkpointed partials + replay recover exactly") {
    val failAtMs = 10500L
    val before = lines.filter(col("ts") < failAtMs)
    val after = lines.filter(col("ts") >= failAtMs)
    assert(before.count() > 0 && after.count() > 0)
    DfCompare.assertSameRows(PartitionedExec.recover(PartitionedExec.logChain, before, after),
      logRef, "log fault recovery")
  }

  // ------------------------------------------------------------------
  // Plan shape: a lane whose load-factor band is empty is not built
  // ------------------------------------------------------------------

  /** Scans of the record input and joins in the optimized plan. */
  private def shape(df: DataFrame): (Int, Int) = {
    val plan = df.queryExecution.optimizedPlan
    (plan.collectLeaves().count(_.output.exists(_.name == "recId")),
      plan.collect { case j: Join => j }.size)
  }

  // (query, plan, e, build, (input scans, joins))
  private val shapes = Seq[(String, String, Seq[Double], Seq[Double] => DataFrame, (Int, Int))](
    ("S2SProbe", "All-SP", Seq(0.0, 0.0), PartitionedExec.s2s(pings, _), (1, 0)),
    ("S2SProbe", "All-Src", Seq(1.0, 1.0), PartitionedExec.s2s(pings, _), (1, 0)),
    ("S2SProbe", "a repeated", Seq(0.7, 0.7), PartitionedExec.s2s(pings, _), (2, 0)),
    ("T2TProbe", "All-SP", Seq(0.0, 0.0, 0.0), PartitionedExec.t2t(pings, tor, _), (1, 2)),
    ("T2TProbe", "All-Src", Seq(1.0, 1.0, 1.0), PartitionedExec.t2t(pings, tor, _), (1, 2)),
    ("T2TProbe", "a repeated", Seq(1.0, 0.5, 0.5), PartitionedExec.t2t(pings, tor, _), (2, 4)),
    ("LogAnalytics", "All-SP", Seq(0.0, 0.0, 0.0), PartitionedExec.log(lines, _), (1, 0)),
    ("LogAnalytics", "All-Src", Seq(1.0, 1.0, 1.0), PartitionedExec.log(lines, _), (1, 0)),
    ("LogAnalytics", "a repeated", Seq(1.0, 1.0, 0.0), PartitionedExec.log(lines, _), (1, 0)),
  )

  for ((q, at, e, build, expected) <- shapes)
    test(s"$q at $at plan e=${e.mkString("(", ",", ")")} builds no empty lane") {
      assert(shape(build(e)) == expected, "(input scans, joins)")
    }

  for (q <- Seq("S2SProbe", "T2TProbe", "LogAnalytics"))
    test(s"$q per-source plans look their load factors up: no join but the query's own") {
      val (chain, input, key, _, _) = edgeCase(q)
      val m = chain.spec.numProxies
      val mapped = Map(0L -> Seq.fill(m)(1.0), 1L -> Seq.tabulate(m)(i => 0.7 - 0.3 * i)) // others unmapped
      for ((how, plans) <- Seq("mapped" -> mapped, "unmapped" -> Map.empty[Long, Seq[Double]])) {
        val plan = PartitionedExec.perSource(input, chain, key, plans)
        if (q == "T2TProbe") {
          // Each of the query's ToR lookups joins a lane with the `tor` table,
          // whose columns `Queries.torJoin` renames.
          val torCols = Set("s_ip", "srcTor", "d_ip", "dstTor")
          val readsTor = (j: Join) => Seq(j.left, j.right).exists(_.output.forall(a => torCols(a.name)))
          val joins = plan.queryExecution.optimizedPlan.collect { case j: Join => j }
          assert(joins.nonEmpty && joins.forall(readsTor), s"$q $how")
        } else assert(shape(plan)._2 == 0, s"$q $how: joins")
      }
    }

  test("LogAnalytics p95 computes its one percentile on the SP at every plan") {
    for (e <- p95Grid) {
      val plan = PartitionedExec.global(lines, PartitionedExec.logP95Chain, e).queryExecution.optimizedPlan
      val percentiles = plan.collect { case a: Aggregate =>
        a.aggregateExpressions.map(_.collect { case p: Percentile => p }.size).sum
      }.sum
      assert(percentiles == 1, s"e=$e")
    }
  }

  // ------------------------------------------------------------------
  // The u draw
  // ------------------------------------------------------------------

  test("u is deterministic per record and uniform-ish") {
    val u = PartitionedExec.uCol(col("recId"))
    val stats = pings.select(u as "u").agg(min("u"), max("u"), avg("u")).collect()(0)
    assert(stats.getDouble(0) >= 0.0 && stats.getDouble(1) < 1.0)
    assert(math.abs(stats.getDouble(2) - 0.5) < 0.05, s"mean u = ${stats.getDouble(2)}")
  }

  test("different seeds give different record selections") {
    val a = pings.filter(PartitionedExec.uCol(col("recId"), 1L) < 0.5).count()
    val overlap = pings.filter(
      PartitionedExec.uCol(col("recId"), 1L) < 0.5 &&
        PartitionedExec.uCol(col("recId"), 2L) < 0.5).count()
    // Independent halves should overlap on ~25% of records, not ~50%.
    assert(overlap < a * 0.7)
  }
}
