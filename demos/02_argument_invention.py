# Argument invention: instantiate a CoPA's claims for a motion and
# assemble three-line syllogism-style arguments.
#
# Run from anywhere:  python3 demos/02_argument_invention.py

from pathlib import Path

from copa import Motion, Stance, build_syllogism, instantiate_claim, load_dataset

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "sample_dataset.json")

# Claim templates carry a [TOPIC] token that instantiation fills in.
framework = ds.copa("framework")
nato = next(m for m in ds.motions if m.topic == "NATO")
print("== instantiating the Framework claims for (disband, NATO) ==")
for stance in (Stance.PRO, Stance.CON):
    print(f"  {stance.value}: {instantiate_claim(framework.claim(stance), nato)}")
print()

# A matched CoPA yields a ready-made argument: the claim is the major
# premise, a sentence linking motion to theme is the minor premise, and
# the motion itself is the conclusion.
solar = next(m for m in ds.motions if m.topic == "solar energy")
print("== syllogism for (further exploit, solar energy) x Clean energy ==")
argument = build_syllogism(
    solar,
    ds.copa("clean_energy"),
    Stance.PRO,
    ds.actions,
    minor_override="Solar energy is a form of clean energy.",
)
print(argument)
print()

# Without an override the minor premise falls back to a generic link.
smoking = next(m for m in ds.motions if m.topic == "smoking")
print("== default template, both stances, (ban, smoking) x Personal freedom ==")
for stance in (Stance.PRO, Stance.CON):
    argument = build_syllogism(smoking, ds.copa("personal_freedom"), stance, ds.actions)
    print(f"  [{stance.value}]")
    for line in argument.lines():
        print(f"    {line}")
print()

# Actions may carry their own conclusion phrasing; "brings more harm
# than good" reads badly under the default "we should <action> <topic>"
# scheme, so its Action in ds.actions overrides the conclusion body.
social = next(m for m in ds.motions if m.topic == "social media")
argument = build_syllogism(social, ds.copa("fixable"), Stance.CON, ds.actions)
print("== analysis-style motion gets its own conclusion phrasing ==")
print(argument)

# New motions work the same way; nothing requires membership in the
# dataset when the caller decides the CoPA fits.
query = Motion("query", "ban", "trans fats")
argument = build_syllogism(query, ds.copa("personal_freedom"), Stance.CON, ds.actions)
print()
print("== unseen motion (ban, trans fats) ==")
print(argument)
