package repro.perfbench

import scala.collection.mutable

/** Metrics and operation counts of one benchmark run. The last line a run
  * prints is [[json]]: `correct`, `attempted`, `failed` and `metrics`.
  */
final class Report {
  private val values = mutable.LinkedHashMap.empty[String, Double]
  private val notes = mutable.ArrayBuffer.empty[String]
  private var attemptedOps = 0L
  private var failedOps = 0L

  def put(name: String, value: Double): Unit = values(name) = value
  def put(name: String, value: Long): Unit = put(name, value.toDouble)
  def get(name: String): Option[Double] = values.get(name)

  /** Count one operation (an epoch, a plan run, a runtime step or a table
    * pass); `problem` is None when it ran and passed its reference gate.
    */
  def op(problem: Option[String]): Unit = {
    attemptedOps += 1
    problem.foreach(fail)
  }

  /** Record a failed operation, or a failed check of the benchmark itself. */
  def fail(problem: String): Unit = {
    failedOps += 1
    if (notes.size < 20) notes += problem
  }

  def attempted: Long = attemptedOps
  def failed: Long = failedOps
  def problems: Seq[String] = notes.toSeq
  def failedPct: Double = if (attemptedOps == 0) 100.0 else 100.0 * failedOps / attemptedOps

  /** The result line for the given (name, value, unit) metrics. */
  def json(metrics: Seq[(String, Double, String)]): String = {
    val correct = attemptedOps > 0 && failedOps == 0 && metrics.forall(m => Json.finite(m._2))
    val ms = metrics.map { case (k, v, u) =>
      s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}"
    }.mkString("{", ", ", "}")
    s"""{"correct": $correct, "attempted": ${math.max(attemptedOps, 1L)}, "failed": $failedOps, "metrics": $ms}"""
  }
}

object Json {
  def finite(x: Double): Boolean = !x.isNaN && !x.isInfinite

  /** A number with all its digits; a non-finite value is written as 0 and
    * already makes the run incorrect.
    */
  def num(x: Double): String = if (finite(x)) java.lang.Double.toString(x) else "0"

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) =>
      val js = v match {
        case d: Double => num(d)
        case n: Int    => n.toString
        case n: Long   => n.toString
        case b: Boolean => b.toString
        case other     => str(other.toString)
      }
      s"${str(k)}: $js"
    }.mkString("{", ", ", "}")
}

/** Quantiles of timing samples. */
object Stats {
  /** Linearly interpolated quantile (the "R-7" rule), `q` in [0, 1]. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    if (s.isEmpty) Double.NaN
    else {
      val pos = q * (s.length - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (pos - lo) * (s(hi) - s(lo))
    }
  }

  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)
}

/** Counts of nanosecond durations with 1 ns resolution below 100 µs and
  * exact values above, so millions of microsecond-scale samples cost no
  * allocation per sample.
  */
final class NanoHistogram {
  private val Limit = 100000
  private val counts = new Array[Int](Limit)
  private val large = mutable.ArrayBuffer.empty[Long]
  private var n = 0L
  private var total = 0L

  def add(ns: Long): Unit = {
    val v = math.max(ns, 0L)
    if (v < Limit) counts(v.toInt) += 1 else large += v
    n += 1
    total += v
  }

  def count: Long = n
  def sumNs: Long = total
  def meanNs: Double = if (n == 0) Double.NaN else total.toDouble / n

  /** Quantile in nanoseconds; within a 1 ns bucket the samples are taken
    * as evenly spread, so the value keeps sub-nanosecond digits.
    */
  def quantileNs(q: Double): Double = {
    if (n == 0) return Double.NaN
    val rank = math.max(1.0, q * n)
    var seen = 0L
    var i = 0
    while (i < Limit) {
      val c = counts(i)
      if (seen + c >= rank) return i + (rank - seen) / c
      seen += c
      i += 1
    }
    val sorted = large.sorted
    sorted(math.min(sorted.size - 1, math.ceil(rank - seen).toInt - 1)).toDouble
  }
}
