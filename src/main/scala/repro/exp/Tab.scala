package repro.exp

/** Minimal fixed-width table printer for experiment harnesses — every bench
  * suite and job prints the same rows the paper's figures plot.
  */
object Tab {
  def format(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def print(title: String, headers: Seq[String], rows: Seq[Seq[String]]): Unit =
    println(format(title, headers, rows) + "\n")

  def f1(x: Double): String = f"$x%.1f"
  def f2(x: Double): String = f"$x%.2f"
}
