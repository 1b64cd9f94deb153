"""Machine-learning module (from-scratch reimplementations).

The paper evaluates four decision-tree classifiers from Weka — J48
(C4.5), RandomForest, RandomTree and HoeffdingTree — on the task of
predicting a function invocation's memory interval from request
features, and uses J48 both for memory prediction and for the binary
cache-benefit classifier (§5).  This package reimplements all four on
numpy, plus the dataset plumbing, interval discretization and the
evaluation metrics (exact / exact-or-over accuracy, precision/recall/F,
k-fold cross-validation) used by Table 1 and §7.1.
"""

from repro import lazy_exports

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "Dataset": ".dataset",
    "HoeffdingTreeClassifier": ".hoeffding",
    "J48Classifier": ".tree",
    "MemoryIntervals": ".intervals",
    "RandomForestClassifier": ".forest",
    "RandomTreeClassifier": ".forest",
    "accuracy": ".metrics",
    "confusion_matrix": ".metrics",
    "cross_validate": ".metrics",
    "eo_accuracy": ".metrics",
    "f_measure": ".metrics",
    "precision_recall": ".metrics",
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
