// R9 fixture: root_label() after a structure-only apply() without a
// relabel in between.  Never compiled — lint input only.
void stale(core::Mtt& tree, const Updates& updates, const Prf& prf) {
  tree.apply(updates);
  auto bad = tree.root_label();
  tree.apply(updates);
  tree.compute_labels(prf, 4);
  auto good = tree.root_label();
}
