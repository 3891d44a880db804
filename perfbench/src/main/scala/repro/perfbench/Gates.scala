package repro.perfbench

import java.io.{ByteArrayOutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.adapt.RuntimeConfig
import repro.exp._

/** A collected query result: its column names and rows, as `collect`
  * returned them inside the timed region.
  */
final case class Collected(columns: Seq[String], rows: Array[Row])

object Collected {
  def of(df: DataFrame): Collected = Collected(df.columns.toSeq, df.collect())
}

/** Row-set gate: a result must hold the same rows as its reference,
  * order-insensitively, over the same columns. As in the tests' `DfCompare`,
  * columns are matched by name and rows as a set; floating-point cells are
  * compared to a relative 1e-9 rather than as six-decimal strings, because
  * averages of 4-decimal RTTs over power-of-two counts often land exactly
  * on a rounding boundary, where a one-ulp difference in summation order
  * would flip the sixth decimal.
  */
object RowGate {
  /** Rows as (exact cells, floating-point cells), sorted. */
  final case class Canon(columns: Seq[String], rows: Vector[(String, Vector[Double])])

  private def exact(v: Any): String = v match {
    case null => "∅"
    case _: Double | _: Float | _: java.math.BigDecimal => "#"
    case x => x.toString
  }

  private def floating(v: Any): Option[Double] = v match {
    case d: Double => Some(d)
    case f: Float => Some(f.toDouble)
    case bd: java.math.BigDecimal => Some(bd.doubleValue)
    case _ => None
  }

  private val byCells: Ordering[(String, Vector[Double])] =
    Ordering.Tuple2(Ordering.String, Ordering.Implicits.seqOrdering[Vector, Double](Ordering.Double.TotalOrdering))

  def canon(c: Collected): Canon = {
    val order = c.columns.zipWithIndex.sortBy(_._1).map(_._2)
    val rows = c.rows.iterator.map { r =>
      val cells = order.map(r.get)
      (cells.map(exact).mkString("|"), cells.flatMap(floating).toVector)
    }.toVector
    Canon(order.map(c.columns), rows.sorted(byCells))
  }

  private def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) || math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** None when `actual` equals `expected`, else what differs. */
  def check(actual: Canon, expected: Canon): Option[String] =
    if (actual.columns != expected.columns)
      Some(s"columns ${actual.columns.mkString(",")} vs ${expected.columns.mkString(",")}")
    else if (actual.rows.size != expected.rows.size)
      Some(s"${actual.rows.size} vs ${expected.rows.size} rows")
    else actual.rows.iterator.zip(expected.rows.iterator).collectFirst {
      case (a, e) if a._1 != e._1 || a._2.size != e._2.size || a._2.iterator.zip(e._2.iterator).exists { case (x, y) => !close(x, y) } =>
        s"row ${a._1} ${a._2.mkString(",")} vs ${e._1} ${e._2.mkString(",")}"
    }
}

/** Table gate for the simulator experiments: the printed T1, T2, T3, T5
  * and T6 tables must hash to the SHA-256 digests they had when this
  * benchmark was defined. A refactor that changes one table cell fails it.
  */
object TableGate {
  val Tables: Vector[(String, () => Unit)] = Vector(
    "t1" -> (() => Exp1Throughput.printAll()),
    "t2" -> (() => Exp2Convergence.printAll()),
    "t3" -> (() => Exp3OperatorCount.printAll()),
    "t5" -> (() => Exp5Scaling.printAll()),
    "t6" -> (() => Exp6MultiQuery.printAll()),
  )

  val Expected: Map[String, String] = Map(
    "t1" -> "a19eb4525e834599065a18a5c686734e00e7978a9dd4072adcef212d00050c42",
    "t2" -> "251d5764bd999c374292c8422a874db3f023f3136f5a1903d7638593c089c60c",
    "t3" -> "aa2fa4c1a1f04f4f8dde4a61664b8bfbea74fc0e8185b1fc798611ed11d38c15",
    "t5" -> "42a17bb5bdde640975371309bcfdee0fe1a1053df455085fb2db5a615493d407",
    "t6" -> "7888c132dc8d0e2d15a06038dbb00d4522095b023a3773d2edd1b5d525ee3bbc",
  )

  /** What a table harness prints, captured instead of written to stdout. */
  def render(print: () => Unit): String = {
    val buf = new ByteArrayOutputStream()
    val out = new PrintStream(buf, true, UTF_8)
    Console.withOut(out)(print())
    out.flush()
    buf.toString(UTF_8)
  }

  def digest(text: String): String =
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).map(b => f"$b%02x").mkString

  def check(table: String, text: String): Option[String] = {
    val d = digest(text)
    if (Expected.get(table).contains(d)) None else Some(s"table $table digest $d differs from the reference")
  }
}

/** Grid gate: every load factor the runtime applies lies in [0, 1] on the
  * fine-tuning grid.
  */
object GridGate {
  val Grid: Int = RuntimeConfig.Jarvis.grid

  def onGrid(p: Vector[Double]): Boolean =
    p.forall(x => x >= 0.0 && x <= 1.0 && math.abs(x * Grid - math.rint(x * Grid)) < 1e-9)

  def check(p: Vector[Double]): Option[String] =
    if (onGrid(p)) None else Some(s"load factors off the grid: ${p.mkString(",")}")
}
