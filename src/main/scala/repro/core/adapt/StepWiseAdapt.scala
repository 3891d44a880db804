package repro.core.adapt

/** Model-agnostic fine-tuning step of StepWise-Adapt (paper §IV-D).
  *
  * Operators are prioritized by *ascending* relay ratio — an operator that
  * reduces more data ranks higher, so spare budget goes where it saves the
  * most network traffic (an FFD-style greedy). On an idle pipeline the
  * highest-priority operator's load factor is raised first (up to 1); on a
  * congested pipeline the lowest-priority operator's is lowered first (down
  * to 0). Each adjustment runs a binary search over `grid` discretized load
  * factor levels; the pipeline is executed for one epoch per probe, so the
  * number of epochs per operator is O(log grid).
  *
  * One shortcut beyond the paper's prose keeps convergence near the paper's
  * reported epoch counts: if raising a load factor produced *no observable
  * change* in utilization (the operator receives no records because an
  * upstream proxy forwards nothing), the search settles at p = 1 immediately
  * instead of bisecting a flat objective.
  *
  * The tuner is a mutable, single-owner object: the Jarvis runtime calls
  * [[step]] once per Adapt epoch with the state observed under the current
  * load factors and applies the returned vector for the next epoch.
  */
final class StepWiseAdapt(byteRelays: Vector[Double], grid: Int) {
  require(grid >= 2, "need at least a 2-level grid")
  private val m = byteRelays.length

  /** Operator indices from highest priority (lowest relay) to lowest. */
  val priorityOrder: Vector[Int] = byteRelays.zipWithIndex.sortBy { case (r, i) => (r, i) }.map(_._2)

  import StepWiseAdapt._

  private var search: Option[Search] = None

  /** Forget any in-flight binary search (on convergence or re-profiling). */
  private def reset(): Unit = search = None

  private def level(p: Double): Int = math.round(p * grid).toInt.max(0).min(grid)
  private def value(l: Int): Double = l.toDouble / grid

  /** One fine-tuning move.
    *
    * @param p     load factors the last epoch ran with
    * @param state pipeline state observed under `p`
    * @param util  CPU utilization observed under `p`
    * @return load factors for the next epoch (unchanged if stable/stuck)
    */
  def step(p: Vector[Double], state: PipelineState, util: Double): Vector[Double] = {
    require(p.length == m, "load factor arity mismatch")
    state match {
      case PipelineState.Stable =>
        reset(); p

      case PipelineState.Congested =>
        search match {
          case Some(s) =>
            // The probed level is too high.
            s.hi = s.cur
            continue(s, p, util)
          case None =>
            startSearch(p, Lower, util)
        }

      case PipelineState.Idle =>
        search match {
          case Some(s) =>
            if (s.dir == Raise && util <= s.utilBefore + 1e-6 && s.cur > level(0.0)) {
              // Flat objective: the operator sees no records — settle at max.
              search = None
              startSearch(p.updated(s.op, 1.0), Raise, util)
            } else {
              // The probed level leaves slack — feasible, push further.
              s.lo = s.cur
              continue(s, p, util)
            }
          case None =>
            startSearch(p, Raise, util)
        }
    }
  }

  /** Open a search on the first operator in `dir`'s priority order that
    * can still move that way, and emit its first probe.
    */
  private def startSearch(p: Vector[Double], dir: Dir, util: Double): Vector[Double] = {
    val opOpt = dir match {
      case Raise => priorityOrder.find(i => p(i) < 1.0 - 1e-9)
      case Lower => priorityOrder.reverseIterator.find(i => p(i) > 1e-9)
    }
    opOpt match {
      case None => p // nothing adjustable — leave as is
      case Some(op) =>
        val cur = level(p(op))
        val (lo, hi) = dir match {
          case Raise => (cur, grid + 1) // hi = grid+1: p=1 not yet known infeasible
          case Lower => (0, cur)        // current level is known congested
        }
        val s = Search(op, dir, lo, hi, cur, util)
        search = Some(s)
        probe(s, p)
    }
  }

  /** Advance a search after updating its bounds; emit the next probe. */
  private def continue(s: Search, p: Vector[Double], util: Double): Vector[Double] =
    if (s.hi - s.lo <= 1) {
      // Interval collapsed: settle at the feasible bound. A raise that
      // settles at p = 1 opens the next operator's search at once (saves
      // an observation epoch); any other settlement waits for the next
      // non-stable observation.
      val settled = p.updated(s.op, value(s.lo))
      search = None
      if (s.dir == Raise && s.lo >= grid) startSearch(settled, Raise, util) else settled
    } else probe(s, p)

  /** Probe the midpoint of the current interval. */
  private def probe(s: Search, p: Vector[Double]): Vector[Double] = {
    val mid = (s.lo + s.hi) / 2
    val midClamped = mid.min(grid).max(0)
    if (midClamped == s.cur && midClamped == s.lo) {
      // Degenerate: already at the midpoint — settle.
      search = None
      p.updated(s.op, value(midClamped))
    } else {
      s.cur = midClamped
      p.updated(s.op, value(midClamped))
    }
  }
}

object StepWiseAdapt {
  private sealed trait Dir
  private case object Raise extends Dir
  private case object Lower extends Dir
  // Invariants: lo is the largest grid level known (or assumed) feasible,
  // hi the smallest known infeasible; the candidate being probed is `cur`.
  private final case class Search(op: Int, dir: Dir, var lo: Int, var hi: Int, var cur: Int,
                                  var utilBefore: Double)
}
