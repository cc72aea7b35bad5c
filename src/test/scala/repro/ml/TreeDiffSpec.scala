package repro.ml

import java.util.concurrent.{Callable, Executors}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.{SparkSpec, TestData}
import repro.core.Point
import repro.core.RDGBGDiffSpec.{Layout, cases, quantized}
import repro.data.DatasetGen
import repro.exp.{BenchConfig, CellKey, Experiment}
import repro.ml.{reference => ref}
import scala.util.Random

/** Differential gate for the one tree grower and the one node type: DT, RF,
  * both GBDT presets and GBDT under a random depth or leaf cap must predict
  * exactly what the learners they replaced (`repro.ml.reference`) predict,
  * on the training points and on test points.
  */
class TreeDiffSpec extends SparkSpec {
  import TreeDiffSpec._

  private def check(name: String, prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20250419L), prop)
    assert(res.passed, s"$name: ${Pretty.pretty(res)}")
  }

  /** Training data of a layout, test points on the half-level grid (so
    * exactly on the cut midpoints of quantized features, and beyond the
    * data on both sides), learner settings and a fit seed.
    */
  private def inputs(layout: Gen[Layout]): Gen[(Vector[Point], Vector[Point], Caps, Long)] =
    for {
      (train, _, seed) <- cases(layout)
      p = train.head.dim
      test <- Gen.listOfN(12, Gen.listOfN(p, Gen.choose(-1, 10).map(_ / 2.0)))
      caps <- capsGen(p, Gen.choose(1, 6))
    } yield (train, test.zipWithIndex.map { case (x, i) => Point(x.toArray, 0, i.toLong) }.toVector, caps, seed)

  private def same(layout: Gen[Layout]): Prop = Prop.forAllNoShrink(inputs(layout)) { case (train, test, caps, seed) =>
    val diff = firstDiff(train, test, caps, seed)
    Prop(diff.isEmpty) :| diff.getOrElse("")
  }

  test("property: identical predictions on quantized, tie-heavy data") {
    check("quantized", same(quantized), 150)
  }

  test("property: identical predictions in one dimension and on a single class") {
    check("p = 1", same(quantized.map(_.copy(p = 1))), 100)
    check("single class", same(Gen.choose(1, 40).map(n => Layout(n, p = 2, classes = 1, levels = 4))), 30)
  }

  test("identical predictions on all 13 datasets at 0 and 20 % noise (maxN = 300, 20 rounds)") {
    val cfg = BenchConfig(maxN = 300, folds = 3)
    val rng = new Random(20250419L)
    for (i <- DatasetGen.specs.indices; nz <- Seq(0.0, 0.2); draw <- 0 until 2) {
      val (_, train, test) = Experiment.foldData(CellKey(i, nz, 0), cfg)
      val p = train.head.dim
      val caps = Caps(cfg.gbdtRounds, rng.nextInt(8), 1 + rng.nextInt(24), 1 + rng.nextInt(p), 1 + rng.nextInt(8))
      firstDiff(train, test, caps, rng.nextLong()).foreach { d =>
        fail(s"${DatasetGen.specs(i).id} at noise $nz, draw $draw: $d")
      }
    }
  }

  test("fits from 4 threads at once predict exactly as a lone fit") {
    // Grid tasks fit at the same time, and each fit fans out into the common pool.
    val train = DatasetGen.withNoise(TestData.blobs(4, 60, dim = 3, sep = 3.0, seed = 11), 0.2, seed = 12)
    val test = TestData.blobs(4, 25, dim = 3, sep = 3.0, seed = 13)
    val learners = Vector(GBDT.xgboostLike(10), GBDT.lightgbmLike(10), RandomForest(nTrees = 12))
    def predictions(): Vector[Vector[Int]] = learners.map(_.fit(train, 5).predictAll(train ++ test))
    val lone = predictions()
    val pool = Executors.newFixedThreadPool(4)
    try {
      val runs = Vector.fill(4)(pool.submit(new Callable[Vector[Vector[Int]]] { def call() = predictions() }))
      runs.foreach(run => assert(run.get() == lone))
    } finally pool.shutdown()
  }
}

object TreeDiffSpec {

  /** GBDT rounds, a GBDT depth cap and leaf cap, the DT feature subset
    * size and the RF tree count.
    */
  final case class Caps(rounds: Int, depth: Int, leaves: Int, features: Int, trees: Int)

  def capsGen(p: Int, rounds: Gen[Int]): Gen[Caps] =
    for (r <- rounds; d <- Gen.choose(0, 7); l <- Gen.choose(1, 20); f <- Gen.choose(1, p); t <- Gen.choose(1, 6))
      yield Caps(r, d, l, f, t)

  /** Each learner next to the reference learner it must equal. */
  def pairs(c: Caps): Vector[(Learner, Learner)] = Vector(
    GBDT.xgboostLike(c.rounds) -> ref.GBDT.xgboostLike(c.rounds),
    GBDT.lightgbmLike(c.rounds) -> ref.GBDT.lightgbmLike(c.rounds),
    GBDT("defaults") -> ref.GBDT("defaults"),
    GBDT("depth cap", c.rounds, maxDepth = c.depth) ->
      ref.GBDT("depth cap", c.rounds, leafWise = false, maxDepth = c.depth),
    GBDT("leaf cap", c.rounds, maxDepth = Int.MaxValue, maxLeaves = c.leaves) ->
      ref.GBDT("leaf cap", c.rounds, leafWise = true, maxLeaves = c.leaves),
    DecisionTree() -> ref.DecisionTree(),
    DecisionTree(featuresPerSplit = c.features) -> ref.DecisionTree(featuresPerSplit = c.features),
    RandomForest(nTrees = c.trees) -> ref.RandomForest(nTrees = c.trees),
  )

  /** The first learner whose `predictAll` on `train` or `test` differs from
    * its reference's, both fitted on `train` with `seed`; None if none does.
    */
  def firstDiff(train: Vector[Point], test: Vector[Point], c: Caps, seed: Long): Option[String] =
    pairs(c).find { case (got, want) =>
      val (g, w) = (got.fit(train, seed), want.fit(train, seed))
      g.predictAll(train) != w.predictAll(train) || g.predictAll(test) != w.predictAll(test)
    }.map { case (got, _) => s"${got.name} differs under $c" }
}
