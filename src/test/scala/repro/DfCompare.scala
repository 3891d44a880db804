package repro

import org.apache.spark.sql.DataFrame

/** Row-set equality between two DataFrames under the same convention as
  * [[Oracle]], for partitioned-vs-full plan comparisons where float
  * summation order may differ in the last ulps.
  */
object DfCompare {

  /** Assert both frames hold the same rows (order-insensitive) over the
    * same column set.
    */
  def assertSameRows(actual: DataFrame, expected: DataFrame, context: String = ""): Unit = {
    require(actual.columns.sorted.toSeq == expected.columns.sorted.toSeq,
      s"$context column mismatch: ${actual.columns.sorted.toSeq} vs ${expected.columns.sorted.toSeq}")
    Oracle.rowDiff(actual.collect().toSeq, actual.columns.toSeq, expected.collect().toSeq, expected.columns.toSeq)
      .foreach(d => throw new AssertionError(s"$context row mismatch: $d"))
  }
}
