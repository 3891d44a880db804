package repro.dataflow

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, concat, lit}
import repro.core.adapt.{EpochObs, JarvisRuntime, Phase, ProfileEstimates}
import repro.core.lp.LoadFactorLP
import repro.core.model.{OpKind, OperatorSpec, QuerySpec}
import repro.sim.SourceNodeSim
import repro.{DfCompare, SparkSpec}

/** The Jarvis control loop driving *real Spark execution* epoch by epoch:
  * load factors adapt to a (simulated) budget while every epoch's
  * partitioned result stays identical to the full query — losslessness
  * holds even mid-adaptation.
  */
class EpochSparkDriverSpec extends SparkSpec {

  /** S2S-shaped spec scaled to the tiny test stream: 200 records/epoch,
    * full pipeline demand = 0.85 cores at that rate.
    */
  private val RecsPerEpoch = 200.0
  private val testSpec: QuerySpec = {
    val f = OperatorSpec("F", OpKind.Filter,
      costSecPerRec = 0.13 / RecsPerEpoch, recRelay = 0.86,
      bytesInPerRec = 86, bytesOutPerRec = 86)
    val gr = OperatorSpec("G+R", OpKind.GroupReduce,
      costSecPerRec = 0.72 / (0.86 * RecsPerEpoch), recRelay = 1.0,
      bytesInPerRec = 86, bytesOutPerRec = 120, groupCount = 2000, windowEpochs = 10)
    QuerySpec("S2SProbe-test", Vector(f, gr), 86, RecsPerEpoch)
  }

  private def batchFor(epoch: Int): DataFrame =
    MonitoringData.pingmesh(spark, nSources = 4, nPeers = 16, nEpochs = 1,
      probesPerEpoch = 50, seed = 1000L + epoch)

  private def newDriver(budget: Double) = new EpochSparkDriver(spark, testSpec, batchFor, budget)

  /** T2T- and LogAnalytics-shaped specs at the same rate; each full
    * pipeline demands ~0.85 cores.
    */
  private val t2tSpec = QuerySpec("T2TProbe-test", Vector(
    OperatorSpec("F", OpKind.Filter, 0.13 / RecsPerEpoch, 0.86, 86, 86),
    OperatorSpec("J", OpKind.Join, 0.45 / (0.86 * RecsPerEpoch), 1.0, 86, 20),
    OperatorSpec("G+R", OpKind.GroupReduce, 0.27 / (0.86 * RecsPerEpoch), 1.0, 20, 86,
      groupCount = 16, windowEpochs = 10),
  ), 86, RecsPerEpoch)
  private val logSpec = QuerySpec("LogAnalytics-test", Vector(
    OperatorSpec("F", OpKind.Filter, 0.10 / RecsPerEpoch, 0.95, 124, 124),
    OperatorSpec("M", OpKind.Map, 0.45 / (0.95 * RecsPerEpoch), 1.0, 124, 28),
    OperatorSpec("G+R", OpKind.GroupReduce, 0.30 / (0.95 * RecsPerEpoch), 1.0, 28, 24,
      groupCount = 150, windowEpochs = 10),
  ), 124, RecsPerEpoch)

  private lazy val tor = MonitoringData.torMap(spark, nIps = 16, ipsPerTor = 4)
  private def logBatchFor(epoch: Int): DataFrame =
    MonitoringData.logLines(spark, nSources = 4, nTenants = 5, nEpochs = 1,
      linesPerEpoch = 50, seed = 2000L + epoch)

  /** Each query: its spec, chain, batches, the full query, and the rows
    * entering each of its operators on a batch, counted independently.
    */
  private case class Case(spec: QuerySpec, chain: PartitionedExec.Chain, batches: Int => DataFrame,
                          full: DataFrame => DataFrame, stageInputs: DataFrame => Seq[DataFrame])
  private lazy val s2s = Case(testSpec, PartitionedExec.s2sChain, batchFor, Queries.s2sFull,
    b => Seq(b, Queries.pingFilter(b)))
  private lazy val t2t = Case(t2tSpec, PartitionedExec.t2tChain(tor), batchFor, Queries.t2tFull(_, tor),
    b => Seq(b, Queries.pingFilter(b), Queries.torJoin(Queries.pingFilter(b), tor)))
  private lazy val log = Case(logSpec, PartitionedExec.logChain, logBatchFor, Queries.logFull,
    b => Seq(b, Queries.logFilter(b), Queries.logParse(Queries.logFilter(b))))

  /** LogAnalytics with an exact p95 at the same rate: the planner keeps the
    * percentile on the SP, so F and M (~0.55 cores) are proxied.
    */
  private val logP95Spec = logSpec.copy(name = "LogAnalytics-p95-test",
    ops = logSpec.ops.updated(2, logSpec.ops(2).copy(name = "P95", kind = OpKind.HolisticReduce)))
  private lazy val logP95 = Case(logP95Spec, PartitionedExec.logP95Chain, logBatchFor, Queries.logP95Full,
    b => Seq(b, Queries.logFilter(b), Queries.logParse(Queries.logFilter(b))))

  private def driver(c: Case, budget: Double, batches: Int => DataFrame) =
    new EpochSparkDriver(spark, c.chain.copy(spec = c.spec), batches, budget)

  private def finite(obs: EpochObs): Boolean =
    (obs.proxies.flatMap(px => Seq(px.incoming, px.intended, px.processed)) ++
      Seq(obs.cpuDemand, obs.cpuBudget, obs.drainedBytes, obs.outputBytes, obs.utilization))
      .forall(_.isFinite)

  private def finite(est: ProfileEstimates): Boolean =
    (est.costs ++ est.recRelays ++ est.bytesAtOp :+ est.budgetPerRec).forall(_.isFinite)

  /** Twelve runtime steps, a Profile epoch among them. After every step,
    * Profile included, the driver's batch is the one it was just served
    * and its result equals the full query on the batch of that index.
    */
  private def convergesLosslessly(c: Case, budget: Double = 1.0): Unit = {
    var served: Option[(Int, DataFrame)] = None
    val d = driver(c, budget, k => { val b = c.batches(k); served = Some(k -> b); b })
    val rt = new JarvisRuntime(d)
    for (_ <- 0 until 12) {
      val entry = rt.step()
      val (k, batch) = served.get
      assert(d.lastBatch.exists(_ eq batch), s"${c.spec.name} ${entry.phase} epoch $k")
      DfCompare.assertSameRows(d.lastResult.get, c.full(c.batches(k)),
        s"${c.spec.name} ${entry.phase} epoch $k")
    }
    assert(rt.log.exists(_.phase == Phase.Profile), s"phases=${rt.log.map(_.phase)}")
    assert(rt.convergences.nonEmpty, s"log=${rt.log.map(l => (l.phase, l.state))}")
    assert(rt.loadFactors.forall(_ > 0.9), s"p=${rt.loadFactors}")
  }

  test("zero load factors observe the full stream at proxy 1 and nothing local") {
    val d = newDriver(0.5)
    val obs = d.runEpoch(Vector(0.0, 0.0))
    assert(obs.proxies(0).incoming == 200.0)
    assert(obs.proxies(0).intended == 0.0)
    assert(obs.cpuDemand == 0.0)
    assert(obs.drainedBytes == 200 * 86.0)
  }

  test("full load factors process everything within an ample budget") {
    val d = newDriver(1.0)
    val obs = d.runEpoch(Vector(1.0, 1.0))
    assert(obs.proxies(0).intended == 200.0)
    assert(obs.proxies(0).forcedDrain < 1e-9)
    assert(obs.cpuDemand > 0.7 && obs.cpuDemand < 1.0, s"demand=${obs.cpuDemand}")
  }

  test("measured lane counts track the load factors") {
    val d = newDriver(1.0)
    val obs = d.runEpoch(Vector(1.0, 0.5))
    val gr = obs.proxies(1)
    // ~86% survive F; about half of those go local.
    assert(gr.incoming > 140 && gr.incoming < 200, s"incoming=${gr.incoming}")
    assert(gr.intended < gr.incoming * 0.7, s"intended=${gr.intended}")
  }

  test("profile epoch measures the real filter relay") {
    val est = newDriver(1.0).runProfileEpoch()
    assert(est.recRelays(0) > 0.78 && est.recRelays(0) < 0.94, s"relay=${est.recRelays(0)}")
  }

  test("after a Profile epoch the driver reports the byte relays it measured, not the spec's") {
    val batch = batchFor(0).withColumn("errCode", (col("recId") % 2).cast("int"))
    val d = new EpochSparkDriver(spark, testSpec, _ => batch, 1.0)
    assert(d.observedByteRelays == testSpec.byteRelays(RecsPerEpoch), "before the first epoch")
    d.runProfileEpoch()
    val measured = Queries.pingFilter(batch).count().toDouble / batch.count()
    val relay = d.observedByteRelays(0)
    assert(math.abs(measured - 0.5) < 0.01, s"measured=$measured")
    assert(math.abs(relay - measured) < 1e-12, s"relay=$relay measured=$measured")
  }

  test("the control loop converges on Spark and stays lossless throughout") {
    convergesLosslessly(s2s, budget = 0.9)
  }

  test("a budget drop re-adapts to a partial plan on Spark") {
    val d = newDriver(0.9)
    val rt = new JarvisRuntime(d)
    rt.run(10)
    d.budgetCores = 0.5
    rt.run(14)
    assert(rt.convergences.size >= 2, s"phases=${rt.log.map(_.phase)}")
    assert(rt.loadFactors.exists(_ < 1.0), s"p=${rt.loadFactors}")
    // Final plan fits the reduced budget.
    val obs = d.runEpoch(rt.loadFactors)
    assert(obs.cpuDemand <= obs.cpuBudget * 1.1, s"demand=${obs.cpuDemand}")
  }

  test("profile epochs appear in the phase log") {
    val d = newDriver(0.9)
    val rt = new JarvisRuntime(d)
    rt.run(8)
    assert(rt.log.exists(_.phase == Phase.Profile))
  }

  test("an epoch observes QuerySpec.flow over the measured relays, as SourceNodeSim does") {
    val budget = 0.4
    for (c <- Seq(s2s, t2t, log)) {
      val p = Vector.tabulate(c.spec.numOps)(i => if (i == 0) 1.0 else 0.6)
      val obs = driver(c, budget, c.batches).runEpoch(p)
      val n = c.stageInputs(c.batches(0)).map(_.count().toDouble)
      val measured = c.spec.copy(ops = c.spec.ops.zipWithIndex.map { case (op, i) =>
        if (i + 1 < n.length) op.copy(recRelay = n(i + 1) / n(i)) else op
      })
      assert(obs.cpuDemand > budget, s"${c.spec.name}: the case should overload, demand=${obs.cpuDemand}")
      assert(obs == measured.flow(p, n(0), budget), c.spec.name)
      assert(obs == new SourceNodeSim(measured, budget, n(0)).runEpoch(p), c.spec.name)
    }
  }

  test("the control loop converges on Spark and stays lossless throughout (T2TProbe)") {
    convergesLosslessly(t2t)
  }

  test("the control loop converges on Spark and stays lossless throughout (LogAnalytics)") {
    convergesLosslessly(log)
  }

  test("the control loop converges on Spark and stays lossless throughout (LogAnalytics exact p95)") {
    assert(driver(logP95, 1.0, logP95.batches).numOps == 2)
    convergesLosslessly(logP95)
  }

  test("a join that fans out measures a relay above 1, clamped so the stream lives on") {
    val dupTor = tor.unionByName(tor.where(col("ip") === 0).withColumn("tor", col("tor") + 100))
    val c = t2t.copy(chain = PartitionedExec.t2tChain(dupTor), full = Queries.t2tFull(_, dupTor))
    val batch = c.batches(0)
    val filtered = Queries.pingFilter(batch)
    assert(Queries.torJoin(filtered, dupTor).count() > filtered.count(), "the join should fan out")
    val d = driver(c, 0.5, _ => batch)
    val est = d.runProfileEpoch()
    assert(finite(est) && est.recRelays(1) == 1.0, s"$est")
    val sol = LoadFactorLP.solve(est.costs, est.recRelays, est.bytesAtOp, est.budgetPerRec)
    assert(sol.e.forall(_.isFinite), s"$sol")
    for (p <- Seq(Vector(1.0, 1.0, 1.0), sol.p)) {
      val obs = d.runEpoch(p)
      assert(finite(obs), s"$obs")
      DfCompare.assertSameRows(d.lastResult.get, c.full(batch), s"fan-out join at p=$p")
    }
  }

  test("an empty batch observes nothing and profiles finite estimates") {
    for (c <- Seq(s2s, log)) {
      val empty = c.batches(0).where(lit(false))
      val d = driver(c, 0.5, _ => empty)
      val est = d.runProfileEpoch()
      assert(finite(est), s"${c.spec.name}: $est")
      val sol = LoadFactorLP.solve(est.costs, est.recRelays, est.bytesAtOp, est.budgetPerRec)
      assert(sol.e.forall(_.isFinite), s"${c.spec.name}: $sol")
      val obs = d.runEpoch(Vector.fill(c.spec.numOps)(1.0))
      assert(finite(obs), s"${c.spec.name}: $obs")
      assert(obs.cpuDemand == 0.0 && obs.drainedBytes == 0.0 && obs.outputBytes == 0.0,
        s"${c.spec.name}: $obs")
      assert(d.lastResult.get.count() == 0)
    }
  }

  test("a batch the filter drops entirely forwards nothing past it") {
    val filtered = Seq(
      s2s -> ((b: DataFrame) => b.withColumn("errCode", lit(1))),
      log -> ((b: DataFrame) => b.withColumn("raw", concat(lit("!corrupt "), col("recId")))),
    )
    for ((c, dropAll) <- filtered) {
      val batch = dropAll(c.batches(0))
      val d = driver(c, 0.5, _ => batch)
      val est = d.runProfileEpoch()
      assert(finite(est) && est.recRelays(0) == 0.0, s"${c.spec.name}: $est")
      val obs = d.runEpoch(Vector.fill(c.spec.numOps)(1.0))
      assert(finite(obs), s"${c.spec.name}: $obs")
      assert(obs.proxies.tail.forall(_.incoming == 0.0), s"${c.spec.name}: $obs")
      assert(obs.cpuDemand == RecsPerEpoch * c.spec.ops(0).costSecPerRec, s"${c.spec.name}: $obs")
      assert(d.runEpoch(Vector.fill(c.spec.numOps)(0.0)).cpuDemand == 0.0)
      DfCompare.assertSameRows(d.lastResult.get, c.full(batch), c.spec.name)
    }
  }
}
