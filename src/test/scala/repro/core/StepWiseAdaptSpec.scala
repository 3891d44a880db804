package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.adapt.{PipelineState, StepWiseAdapt}

/** Unit tests for the FFD-priority binary-search fine-tuner (paper §IV-D). */
class StepWiseAdaptSpec extends AnyFunSuite {

  private def tuner(relays: Vector[Double], grid: Int = 20) = new StepWiseAdapt(relays, grid)

  test("priority order ranks lowest relay ratio first") {
    val t = tuner(Vector(0.86, 0.05, 0.5))
    assert(t.priorityOrder == Vector(1, 2, 0))
  }

  test("equal relays break ties by pipeline position") {
    val t = tuner(Vector(0.5, 0.5))
    assert(t.priorityOrder == Vector(0, 1))
  }

  test("stable state leaves load factors untouched") {
    val t = tuner(Vector(0.9, 0.1))
    val p = Vector(0.6, 0.4)
    assert(t.step(p, PipelineState.Stable, 0.95) == p)
  }

  test("idle raises the highest-priority operator first") {
    val t = tuner(Vector(0.9, 0.1)) // op 1 has priority
    val p = Vector(0.5, 0.5)
    val next = t.step(p, PipelineState.Idle, 0.5)
    assert(next(1) > 0.5, s"expected op 1 raised: $next")
    assert(next(0) == 0.5)
  }

  test("congested lowers the lowest-priority operator first") {
    val t = tuner(Vector(0.9, 0.1)) // op 0 has lowest priority
    val p = Vector(0.8, 0.6)
    val next = t.step(p, PipelineState.Congested, 1.3)
    assert(next(0) < 0.8, s"expected op 0 lowered: $next")
    assert(next(1) == 0.6)
  }

  test("congested skips operators already at zero") {
    val t = tuner(Vector(0.9, 0.1))
    val p = Vector(0.0, 0.6)
    val next = t.step(p, PipelineState.Congested, 1.3)
    assert(next(1) < 0.6, s"expected op 1 lowered: $next")
  }

  test("idle skips operators already at one") {
    val t = tuner(Vector(0.9, 0.1))
    val p = Vector(0.5, 1.0)
    val next = t.step(p, PipelineState.Idle, 0.4)
    assert(next(0) > 0.5, s"expected op 0 raised: $next")
  }

  test("binary search narrows from both sides") {
    val t = tuner(Vector(0.9, 0.1), grid = 16)
    var p = Vector(1.0, 0.0)
    // Open a raise search on op 1: probe midpoints.
    p = t.step(p, PipelineState.Idle, 0.5)
    val firstProbe = p(1)
    assert(firstProbe > 0.0 && firstProbe < 1.0)
    // Congested at the probe: upper bound shrinks.
    p = t.step(p, PipelineState.Congested, 1.2)
    assert(p(1) < firstProbe)
  }

  test("flat objective (no util change) fast-forwards the operator to one") {
    val t = tuner(Vector(0.9, 0.1), grid = 20)
    var p = Vector(0.0, 0.0)
    // Raise search opens on op 1 (priority), but with p0 = 0 no records
    // reach it: util stays flat, so the next idle observation settles it
    // at 1 and moves to op 0.
    p = t.step(p, PipelineState.Idle, 0.0) // probe op1 at mid
    assert(p(1) > 0.0 && p(0) == 0.0)
    p = t.step(p, PipelineState.Idle, 0.0) // flat util: settle op1=1, probe op0
    assert(p(1) == 1.0)
    assert(p(0) > 0.0, s"search should have moved to op 0: $p")
  }

  test("a raise that settles at p = 1 opens the next operator's search in the same move") {
    val t = tuner(Vector(0.9, 0.1), grid = 4) // op 1 has priority
    var p = Vector(0.5, 0.75)
    p = t.step(p, PipelineState.Idle, 0.5) // raise op 1: probe its top level
    assert(p == Vector(0.5, 1.0))
    // Utilization rose, so op 1 = 1 is feasible: it settles there, and op 0's
    // raise search probes its midpoint in the same step.
    p = t.step(p, PipelineState.Idle, 0.7)
    assert(p == Vector(0.75, 1.0))
  }

  test("a full idle-converge sequence terminates") {
    // Synthetic env: demand = 0.85 * p0 (op1 free); budget 0.6 -> stable
    // band is util in [0.9, 1.0] i.e. p0 in [0.63, 0.7].
    val t = tuner(Vector(0.86, 0.01), grid = 20)
    var p = Vector(0.0, 0.0)
    var state: PipelineState = PipelineState.Idle
    var util = 0.0
    var steps = 0
    while (state != PipelineState.Stable && steps < 30) {
      p = t.step(p, state, util)
      util = 0.85 * p(0) / 0.6
      state =
        if (util > 1.0) PipelineState.Congested
        else if (util < 0.90 && p.exists(_ < 1.0)) PipelineState.Idle
        else PipelineState.Stable
      steps += 1
    }
    assert(state == PipelineState.Stable, s"did not converge: p=$p util=$util")
    assert(steps <= 15, s"took $steps steps")
  }

  test("grid of fewer than 2 levels is rejected") {
    intercept[IllegalArgumentException] { tuner(Vector(0.5), grid = 1) }
  }

  test("arity mismatch is rejected") {
    val t = tuner(Vector(0.5, 0.5))
    intercept[IllegalArgumentException] { t.step(Vector(0.5), PipelineState.Idle, 0.1) }
  }
}
