package repro.exp

import java.io.{ByteArrayOutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

/** Pins the printed T1, T2, T3, T5 and T6 tables to SHA-256 digests of
  * their reference text, so a refactor that moves one table cell fails in
  * the unit tests. The digests are the ones the benchmark's table gate
  * checks (`perfbench` `TableGate.Expected`).
  */
class TableDigestSpec extends AnyFunSuite {

  private val expected: Vector[(String, () => Unit, String)] = Vector(
    ("T1", () => Exp1Throughput.printAll(),
      "a19eb4525e834599065a18a5c686734e00e7978a9dd4072adcef212d00050c42"),
    ("T2", () => Exp2Convergence.printAll(),
      "251d5764bd999c374292c8422a874db3f023f3136f5a1903d7638593c089c60c"),
    ("T3", () => Exp3OperatorCount.printAll(),
      "aa2fa4c1a1f04f4f8dde4a61664b8bfbea74fc0e8185b1fc798611ed11d38c15"),
    ("T5", () => Exp5Scaling.printAll(),
      "42a17bb5bdde640975371309bcfdee0fe1a1053df455085fb2db5a615493d407"),
    ("T6", () => Exp6MultiQuery.printAll(),
      "7888c132dc8d0e2d15a06038dbb00d4522095b023a3773d2edd1b5d525ee3bbc"),
  )

  private def render(print: () => Unit): String = {
    val buf = new ByteArrayOutputStream()
    val out = new PrintStream(buf, true, UTF_8)
    Console.withOut(out)(print())
    out.flush()
    buf.toString(UTF_8)
  }

  private def sha256(text: String): String =
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).map(b => f"$b%02x").mkString

  for ((table, print, digest) <- expected)
    test(s"$table table text matches its reference digest") {
      val text = render(print)
      assert(sha256(text) == digest, s"\n$text")
    }
}
