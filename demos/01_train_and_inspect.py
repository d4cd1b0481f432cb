"""Train the naive Bayes classifier on the bundled dataset and inspect it.

Shows the class priors, the per-attribute Gaussian parameters the model
estimated for each class, and a few classified samples with their posterior
distributions.
"""
from setcast import cli
from setcast import dataset as ds
from setcast import naive_bayes as nb

data = ds.load_samples(cli.default_data_path())
counts = dict(zip(ds.CLASS_LABELS, data.class_counts().tolist()))
print(f"dataset: {len(data)} samples, class counts {counts}")

model = nb.train(data)
print("\npriors: " + ", ".join(
    f"P({c}) = {p:.4f}" for c, p in zip(ds.CLASS_LABELS, model.priors)
))

print("\nper-attribute Gaussian parameters (mu, sigma):")
print(f"{'attribute':>10s}" + "".join(f"{c:>22s}" for c in ds.CLASS_LABELS))
for attr, mus, sigmas in zip(ds.ATTRIBUTE_NAMES, model.mu.T, model.sigma.T):
    cells = [f"({mu:8.4f}, {sigma:7.4f})" for mu, sigma in zip(mus, sigmas)]
    print(f"{attr:>10s}" + "".join(f"{c:>22s}" for c in cells))

dists = nb.predict_proba(model, data.features)  # one row per sample
predicted = [ds.CLASS_LABELS[i] for i in dists.argmax(axis=1)]
actuals = [ds.CLASS_LABELS[c] for c in data.y]
print("\nsample classifications (first five rows):")
for dist, label, actual in list(zip(dists, predicted, actuals))[:5]:
    flag = "ok " if label == actual else "MISS"
    print(f"  {flag}  predicted {label:>4s} (actual {actual:>4s})  "
          f"P(UP) = {dist[0]:.4f}  P(DOWN) = {dist[1]:.4f}")

correct = sum(label == actual for label, actual in zip(predicted, actuals))
print(f"\nresubstitution accuracy: {correct}/{len(data)} "
      f"= {100 * correct / len(data):.1f}%")
