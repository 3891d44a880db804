package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler._
import repro.core.adapt.{EpochExecutor, EpochObs, ProfileEstimates}

/** Spans kept in memory and written as JSON lines when the run ends. A span
  * is (id, parent, name, start, end); times are nanoseconds on the
  * monotonic clock of this JVM. Spans beyond `cap` are counted, not kept.
  * [[Tracer.off]] records nothing and reads no clock.
  */
final class Tracer(cap: Int = 200000) {
  private val enabled = cap > 0
  private val names = new Array[String](cap)
  private val parents = new Array[Int](cap)
  private val starts = new Array[Long](cap)
  private val ends = new Array[Long](cap)
  private var n = 0
  private var open = -1
  private var droppedSpans = 0L
  /** Called with the id of each span opened or resumed on the timing
    * thread, so Spark jobs can name the span that caused them.
    */
  var onEnter: Int => Unit = _ => ()

  /** Wall-clock milliseconds (Spark listener times) to this tracer's clock. */
  private val nanoAtEpochMs: Long = System.nanoTime() - System.currentTimeMillis() * 1000000L
  def fromWallMs(ms: Long): Long = ms * 1000000L + nanoAtEpochMs

  def size: Int = n
  def dropped: Long = droppedSpans

  private def add(name: String, parent: Int, start: Long, end: Long): Int = synchronized {
    if (n < cap) {
      names(n) = name; parents(n) = parent; starts(n) = start; ends(n) = end
      n += 1
      n - 1
    } else { droppedSpans += 1; -1 }
  }

  /** Record a finished span from another thread (the listener bus). */
  def record(name: String, parent: Int, start: Long, end: Long): Unit =
    if (enabled) { add(name, parent, start, end); () }

  /** Open a span on the timing thread; returns its id, or -1. */
  def begin(name: String): Int =
    if (!enabled) -1
    else {
      val id = add(name, open, System.nanoTime(), 0L)
      if (id >= 0) { open = id; onEnter(id) }
      id
    }

  def end(id: Int): Unit =
    if (id >= 0) {
      val parent = synchronized { ends(id) = System.nanoTime(); parents(id) }
      open = parent
      onEnter(parent)
    }

  def span[A](name: String)(body: => A): A = {
    val id = begin(name)
    try body finally end(id)
  }

  def write(path: Path): Unit = synchronized {
    Files.createDirectories(path.getParent)
    val w = Files.newBufferedWriter(path, UTF_8)
    try {
      var i = 0
      while (i < n) {
        w.write(Json.obj(Seq("id" -> i, "parent" -> parents(i), "name" -> names(i),
          "start_ns" -> starts(i), "end_ns" -> ends(i))))
        w.newLine()
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val off: Tracer = new Tracer(0)
}

/** Decorator that times the executor calls a `JarvisRuntime` makes and
  * keeps the Profile estimates it returns; used only in traced runs.
  */
final class TimedExecutor(
    inner: EpochExecutor,
    tracer: Tracer,
    val runNs: NanoHistogram = new NanoHistogram,
    val profileNs: NanoHistogram = new NanoHistogram,
    val profiles: mutable.ArrayBuffer[ProfileEstimates] = mutable.ArrayBuffer.empty,
) extends EpochExecutor {
  /** Executor time spent inside the current runtime step; reset per step. */
  var stepNs = 0L

  def numOps: Int = inner.numOps
  def observedByteRelays: Vector[Double] = inner.observedByteRelays

  def runEpoch(p: Vector[Double]): EpochObs = tracer.span("executor.runEpoch") {
    val t0 = System.nanoTime()
    val obs = inner.runEpoch(p)
    val dt = System.nanoTime() - t0
    runNs.add(dt); stepNs += dt
    obs
  }

  def runProfileEpoch(): ProfileEstimates = tracer.span("executor.runProfileEpoch") {
    val t0 = System.nanoTime()
    val est = inner.runProfileEpoch()
    val dt = System.nanoTime() - t0
    profileNs.add(dt); stepNs += dt
    if (profiles.size < 100000) profiles += est
    est
  }
}

/** Per-tag Spark counters from a listener. The timing thread tags its jobs
  * with the `perfbench.tag` local property (an epoch or a plan) and names
  * the causing span in `perfbench.span`; each finished job becomes a child
  * span of it.
  */
final class SparkCounters(sc: SparkContext, tracer: Tracer) extends SparkListener {
  import SparkCounters._

  final class Counts {
    var jobs = 0L
    var stages = 0L
    var tasks = 0L
    var nonEmptyTasks = 0L
    var shuffleBytes = 0L
    var taskRunMs = 0L
    var taskCpuNs = 0L
    /** (submitted, completed) wall-clock ms of each finished stage. */
    val stageSpans = mutable.ArrayBuffer.empty[(Long, Long)]
  }

  private val counts = mutable.HashMap.empty[String, Counts]
  private val stageTag = mutable.HashMap.empty[Int, String]
  private val jobInfo = mutable.HashMap.empty[Int, (Long, Int)]

  private def of(tag: String): Counts = counts.getOrElseUpdate(tag, new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    props.flatMap(p => Option(p.getProperty(TagKey))).foreach { tag =>
      of(tag).jobs += 1
      e.stageIds.foreach(stageTag(_) = tag)
    }
    val parent = props.flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).getOrElse(-1)
    jobInfo(e.jobId) = (e.time, parent)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobInfo.remove(e.jobId).foreach { case (start, parent) =>
      tracer.record("spark.job", parent, tracer.fromWallMs(start), tracer.fromWallMs(e.time))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageTag.get(e.stageInfo.stageId).foreach { tag =>
      val c = of(tag)
      c.stages += 1
      for (s <- e.stageInfo.submissionTime; d <- e.stageInfo.completionTime) c.stageSpans += ((s, d))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      val c = of(tag)
      c.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        val read = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
        if (read > 0) c.nonEmptyTasks += 1
        c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        c.taskRunMs += m.executorRunTime
        c.taskCpuNs += m.executorCpuTime
      }
    }
  }

  /** Counts of a tag once every event posted so far has been delivered. */
  def get(tag: String): Counts = {
    ListenerBus.drain(sc)
    synchronized(counts.getOrElse(tag, new Counts))
  }
}

object SparkCounters {
  val TagKey = "perfbench.tag"
  val SpanKey = "perfbench.span"

  def install(sc: SparkContext, tracer: Tracer): SparkCounters = {
    val c = new SparkCounters(sc, tracer)
    sc.addSparkListener(c)
    tracer.onEnter = id => sc.setLocalProperty(SpanKey, id.toString)
    c
  }

  /** Length of the part of [lo, hi] that no interval covers. */
  def uncovered(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var reach = lo
    for ((s, e) <- intervals.sortBy(_._1)) {
      val a = math.max(s, reach)
      val b = math.min(e, hi)
      if (b > a) { covered += b - a; reach = b }
    }
    math.max(0L, hi - lo - covered)
  }
}
