"""Stratified 10-fold cross-validation of both classifiers.

Runs naive Bayes and the linear SVM on one fold assignment per seed, prints
the full text report for naive Bayes, then sweeps ten seeds to show how fold
shuffling moves the accuracy of each model.
"""
import numpy as np

from setcast import cli
from setcast import dataset as ds
from setcast import evaluation as ev
from setcast import naive_bayes as nb
from setcast import svm

data = ds.load_samples(cli.default_data_path())

# a fold trainer, its predictor and a fold assignment; svm.train_folds fits
# every fold on one kernel matrix, each fold warm-started from the previous
# fold's alphas, and its defaults are a linear kernel, C = 1
folds = ds.stratified_folds(data, k=10, seed=1)
report = ev.cross_validate(data, nb.train_folds, nb.predict_proba, folds)
print(f"naive Bayes, 10 folds, seed 1 (fold digest {folds.digest()}):\n")
print(ev.render_text(report))

print("seed sweep (accuracy per seed):")
print(f"{'seed':>6s}{'naive Bayes':>14s}{'linear SVM':>14s}")
nb_accs, svm_accs = [], []
for seed in range(10):
    folds = ds.stratified_folds(data, 10, seed)  # both models score the same partition
    nb_report = ev.cross_validate(data, nb.train_folds, nb.predict_proba, folds)
    svm_report = ev.cross_validate(data, svm.train_folds, svm.predict_proba, folds)
    nb_accs.append(nb_report.accuracy)
    svm_accs.append(svm_report.accuracy)
    print(f"{seed:6d}{nb_report.accuracy:14.4f}{svm_report.accuracy:14.4f}")
print(f"{'mean':>6s}{np.mean(nb_accs):14.4f}{np.mean(svm_accs):14.4f}")
