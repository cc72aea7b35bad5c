package repro.ml.reference

// The learner from before the single tree grower, kept verbatim (only the
// package is new) as the reference of repro.ml.TreeDiffSpec.

import repro.core.Point
import repro.ml.{Classifier, Learner}
import scala.util.Random

/** Random forest: bagged CART trees with sqrt(p) random features per split
  * and majority voting (Breiman 2001 / scikit-learn semantics; ensemble
  * size reduced for the bench budget and recorded in EXPERIMENTS.md).
  */
final case class RandomForest(nTrees: Int = 25, maxDepth: Int = 15) extends Learner {
  override val name = "RF"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    require(train.nonEmpty, "RF needs a non-empty training set")
    val rng = new Random(seed)
    val p = train.head.dim
    val mtry = math.max(1, math.round(math.sqrt(p.toDouble)).toInt)
    val n = train.size
    val trees = Vector.fill(nTrees) {
      val boot = Vector.fill(n)(train(rng.nextInt(n)))
      DecisionTree.build(boot, maxDepth, 2, mtry, new Random(rng.nextLong()))
    }
    new ForestModel(trees)
  }
}

final class ForestModel(val trees: Vector[TreeModel]) extends Classifier {
  override def predict(x: Array[Double]): Int =
    trees.map(_.predict(x)).groupBy(identity).maxBy { case (lab, v) => (v.size, -lab) }._1
}
