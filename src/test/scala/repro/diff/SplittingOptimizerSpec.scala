package repro.diff

import org.scalatest.funsuite.AnyFunSuite

/** Unit behavior of the §5 adaptive splitting optimizer. */
class SplittingOptimizerSpec extends AnyFunSuite {

  test("bootstrap: view 0 scratch, view 1 differential") {
    val o = new SplittingOptimizer()
    assert(!o.decide(0, 100, 100))
    assert(o.decide(1, 100, 10))
  }

  test("prefers differential when diff observations are cheaper") {
    val o = new SplittingOptimizer()
    o.observe(ranDifferentially = false, size = 1000, time = 1000)
    o.observe(ranDifferentially = true, size = 10, time = 50)
    assert(o.decide(2, 1000, 10))
  }

  test("prefers scratch when differential was slower") {
    val o = new SplittingOptimizer()
    o.observe(ranDifferentially = false, size = 1000, time = 200)
    o.observe(ranDifferentially = true, size = 900, time = 2000)
    assert(!o.decide(2, 1000, 900))
  }

  test("linear model extrapolates with the diff size") {
    val o = new SplittingOptimizer()
    o.observe(ranDifferentially = false, size = 1000, time = 500)
    o.observe(ranDifferentially = false, size = 2000, time = 1000) // 0.5 ms/edge
    o.observe(ranDifferentially = true, size = 100, time = 100)
    o.observe(ranDifferentially = true, size = 200, time = 200)    // 1 ms/diff
    // Small diff: 300 diffs ≈ 300ms < scratch 1000 edges ≈ 500ms → diff.
    assert(o.decide(4, 1000, 300))
    // Huge diff: 5000 diffs ≈ 5000ms > scratch ≈ 500ms → scratch.
    assert(!o.decide(5, 1000, 5000))
  }

  test("batched decisions repeat for ℓ views") {
    val o = new SplittingOptimizer(batchSize = 3)
    o.observe(ranDifferentially = false, size = 100, time = 1000)
    o.observe(ranDifferentially = true, size = 100, time = 10)
    val d = (2 to 7).map(t => o.decide(t, 100, 100))
    assert(d.forall(identity)) // diff wins; whole batches stay diff
  }

  test("degenerate fits fall back to the mean") {
    val o = new SplittingOptimizer()
    o.observe(ranDifferentially = false, size = 500, time = 400)
    o.observe(ranDifferentially = false, size = 500, time = 600) // zero variance in x
    assert(math.abs(o.predictScratch(123456) - 500.0) < 1e-9)
  }

  test("no observations for a mode means it is never preferred") {
    val o = new SplittingOptimizer()
    o.observe(ranDifferentially = false, size = 100, time = 999999)
    assert(!o.decide(2, 100, 100)) // no diff observations → scratch
  }
}
