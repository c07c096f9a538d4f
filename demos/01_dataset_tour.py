# Tour of the argument knowledge base: load the sample dataset, look at
# its motions, CoPAs and label relation, and compute coverage statistics.
#
# Run from anywhere:  python3 demos/01_dataset_tour.py

from pathlib import Path

import numpy as np

from copa import baseline_largest, copa_stats, load_dataset

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "sample_dataset.json")

print("== dataset ==")
print(f"{len(ds.motions)} motions, {len(ds.copas)} CoPAs, {len(ds.labels)} labels")
print(f"general CoPAs: {sorted(ds.general_copa_ids)}")
print()

print("== a few motions ==")
for m in ds.motions[:5]:
    surface = ds.actions[m.action].surface
    members = sorted(c.id for c in ds.copas if m.id in c.motion_ids)
    print(f"  {m.id}: we should {surface} {m.topic}  ->  {members}")
print()

print("== CoPAs and their opposing claims ==")
for c in ds.copas:
    tag = " (topic-related)" if c.topic_related else ""
    print(f"  {c.name}{tag}, {len(c.motion_ids)} motions")
    for claim in c.claims:
        print(f"    {claim.stance.value}: {claim.template}")
print()

print("== membership statistics ==")
for exclude in (False, True):
    st = copa_stats(ds, exclude_general=exclude)
    label = "without general CoPAs" if exclude else "all CoPAs"
    print(f"  [{label}]")
    print(f"    covered fraction:      {st.covered_fraction:.3f}")
    print(f"    mean CoPAs per motion: {st.mean_copas_per_motion:.3f}")
    print(f"    max CoPAs per motion:  {st.max_copas_per_motion}")
print()

# The overlap matrix: entry (i, j) is the fraction of CoPA i's motions
# that also belong to CoPA j.  Rows of empty CoPAs are zero.
st = copa_stats(ds)
print("== overlap matrix ==")
width = max(len(c) for c in st.copa_ids)
header = " " * (width + 2) + "  ".join(f"{c[:6]:>6}" for c in st.copa_ids)
print(header)
for cid, row in zip(st.copa_ids, st.overlap):
    cells = "  ".join(f"{v:6.2f}" for v in row)
    print(f"{cid:>{width}}  {cells}")
print()

# Sanity-check one overlap entry by hand.
members = {c.id: c.motion_ids for c in ds.copas}
i = st.copa_ids.index("personal_freedom")
j = st.copa_ids.index("black_market")
manual = len(members["personal_freedom"] & members["black_market"]) / len(members["personal_freedom"])
assert np.isclose(st.overlap[i, j], manual)
print(f"fraction of Personal freedom motions also in Black market: {manual:.2f}")
print()

print("== naive baseline: always predict the largest CoPA ==")
for exclude in (False, True):
    base = baseline_largest(ds, exclude_general=exclude)
    label = "general excluded" if exclude else "all CoPAs"
    print(f"  {label}: predict {base.copa_id!r} -> precision {base.precision:.3f}")
