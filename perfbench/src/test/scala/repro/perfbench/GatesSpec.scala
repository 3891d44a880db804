package repro.perfbench

import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite

/** Each reference gate accepts a correct output and rejects one corrupted
  * row, cell or load factor.
  */
class GatesSpec extends AnyFunSuite {

  private val cols = Seq("win", "srcIp", "dstIp", "avg_rtt", "cnt")
  private val rows = Array(
    Row(0L, 1L, 2L, 0.5123456, 3L),
    Row(0L, 1L, 3L, 1.25, 1L),
    Row(1L, 4L, 2L, 2.0, 7L),
  )
  private val reference = RowGate.canon(Collected(cols, rows))

  test("row gate accepts the same rows in another order and column order") {
    val reordered = Collected(cols.reverse, rows.reverse.map(r => Row.fromSeq(r.toSeq.reverse)))
    assert(RowGate.check(RowGate.canon(reordered), reference).isEmpty)
  }

  test("row gate ignores summation-order noise, also on a rounding boundary") {
    val noisy = rows.map(r => Row(r(0), r(1), r(2), math.nextUp(r.getDouble(3)), r(4)))
    assert(RowGate.check(RowGate.canon(Collected(cols, noisy)), reference).isEmpty)
    val boundary = Collected(Seq("avg"), Array(Row(2.0327875)))
    val flipped = Collected(Seq("avg"), Array(Row(math.nextDown(2.0327875))))
    assert(RowGate.check(RowGate.canon(flipped), RowGate.canon(boundary)).isEmpty)
  }

  test("row gate rejects a change in the sixth significant digit") {
    val changed = rows.updated(0, Row(0L, 1L, 2L, 0.5123466, 3L))
    assert(RowGate.check(RowGate.canon(Collected(cols, changed)), reference).nonEmpty)
  }

  test("row gate rejects one changed row") {
    val changed = rows.updated(1, Row(0L, 1L, 3L, 1.26, 1L))
    assert(RowGate.check(RowGate.canon(Collected(cols, changed)), reference).nonEmpty)
  }

  test("row gate rejects a lost row and a renamed column") {
    assert(RowGate.check(RowGate.canon(Collected(cols, rows.drop(1))), reference).nonEmpty)
    val renamed = cols.updated(4, "count")
    assert(RowGate.check(RowGate.canon(Collected(renamed, rows)), reference).nonEmpty)
  }

  test("table gate accepts every table as printed") {
    for ((name, print) <- TableGate.Tables)
      assert(TableGate.check(name, TableGate.render(print)).isEmpty, name)
  }

  test("table gate rejects one changed cell") {
    val (name, print) = TableGate.Tables.head
    val text = TableGate.render(print)
    val cell = "\\| (\\d+\\.\\d) ".r.findFirstMatchIn(text).get
    val corrupted = text.patch(cell.start(1), f"${cell.group(1).toDouble + 0.1}%.1f", cell.group(1).length)
    assert(corrupted != text)
    assert(TableGate.check(name, corrupted).nonEmpty)
  }

  test("grid gate accepts load factors on the grid and rejects any other") {
    assert(GridGate.check(Vector(0.0, 0.35, 1.0)).isEmpty)
    assert(GridGate.check(Vector(0.33, 1.0)).nonEmpty)
    assert(GridGate.check(Vector(1.05)).nonEmpty)
    assert(GridGate.check(Vector(-0.05)).nonEmpty)
  }

  test("uncovered time counts the gaps between overlapping stages") {
    assert(SparkCounters.uncovered(0, 100, Seq((10L, 30L), (20L, 50L), (70L, 80L))) == 50)
    assert(SparkCounters.uncovered(0, 100, Nil) == 100)
  }
}
