package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the rows match
  * ``sparkDf`` in any order, doubles within [[close]]. This catches wrong
  * results from a rewritten plan or a custom operator — "it ran" is not
  * "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** One row in sorted-column order: its non-double values as strings, with
    * `#` in each double's place, and its doubles.
    */
  private final case class Canon(key: String, doubles: Seq[Double]) {
    def matches(o: Canon): Boolean =
      key == o.key && doubles.length == o.doubles.length && doubles.lazyZip(o.doubles).forall(close)
  }

  private val canonOrder: Ordering[Canon] =
    Ordering.by[Canon, String](_.key)
      .orElse(Ordering.Implicits.seqOrdering[Seq, Double](Ordering.Double.TotalOrdering).on(_.doubles))

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Canon] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows.map { r =>
      val vals = idx.map(r.get)
      Canon(
        vals.map {
          case null => "∅"
          case _: Double | _: Float | _: java.math.BigDecimal => "#"
          case x => x.toString
        }.mkString("|"),
        vals.collect {
          case d: Double => d
          case f: Float => f.toDouble
          case bd: java.math.BigDecimal => bd.doubleValue
        })
    }.sorted(canonOrder)
  }

  /** Doubles agree within min(5e-7, 1e-9 · max(1, |a|, |b|)). At every
    * magnitude that is no looser than equal six-decimal strings, yet a
    * one-ulp change in summation order cannot flip a value that sits on a
    * rounding boundary, as 2.0327875 does.
    */
  private def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) ||
      math.abs(a - b) <= math.min(5e-7, 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b))))

  /** `None` when both row sets hold the same rows in any order, else what
    * differs. Rows are matched on their non-double columns; their doubles
    * must then be [[close]].
    */
  private[repro] def rowDiff(got: Seq[Row], gotCols: Seq[String],
                             exp: Seq[Row], expCols: Seq[String]): Option[String] = {
    val (g, e) = (canon(got, gotCols), canon(exp, expCols))
    if (g.length == e.length && g.lazyZip(e).forall(_ matches _)) None
    else Some(s"${g.length} vs ${e.length} rows; first differing pairs: " +
      g.zip(e).filterNot { case (a, b) => a.matches(b) }.take(3).mkString(", "))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      rowDiff(sparkDf.collect().toSeq, sCols, dRows, dCols)
        .foreach(d => throw new IllegalArgumentException(s"result mismatch: $d"))
    } finally conn.close()
  }
}
