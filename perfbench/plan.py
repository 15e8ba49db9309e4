"""The benchmark's workloads: what each one runs and at what size.

Sizes are chosen so that every run of every workload fits the benchmark's
time budget on a 2-core machine while taking several timed samples;
README.md says why each workload exists and which layers it exercises.
"""

#: Every process of every run gets this hash seed: dict and set iteration
#: order changes served-session times by a quarter between hash seeds.
PYTHONHASHSEED = "0"

#: The SPECint profiles, in the harness's order.
ALL_PROFILES = ("bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
                "parser", "perlbmk", "twolf", "vortex", "vpr")

WORKLOADS = {
    # Figure 6 over every profile: cold, the functional and cycle layers
    # do the work; warm, ACF install and cache-key hashing do.
    "fig6": {
        "kind": "figures",
        "tables": ("fig6_top", "fig6_cache", "fig6_width"),
        "profiles": ALL_PROFILES,
        "scale": 0.05,
        "warm_repeats": 2,
    },
    # Figures 7 and 8 on the profile with the least static text:
    # compression does not depend on scale and dominates cold and warm.
    "fig78": {
        "kind": "figures",
        "tables": ("fig7_ratio", "fig7_perf", "fig7_rt", "fig8_perf",
                   "fig8_rt"),
        "profiles": ("mcf",),
        "scale": 0.05,
        "warm_repeats": 1,
        "min_passes": 3,
    },
    # A seeded MFI fault campaign through the fabric with cohort batching
    # on, as ``faults run --batch 8`` runs it.  Warm processes replay the
    # campaign against the fabric store the cold process filled.
    "faults": {
        "kind": "faults",
        "faults": 60,
        "benchmarks": ("bzip2", "gzip", "mcf", "parser"),
        "scale": 0.05,
        "batch": 8,
        "warm_repeats": 2,
        "min_passes": 2,
    },
    # Closed-loop sessions against an in-process server core: two tenants
    # from one load thread, more live sessions than pool slots.  Every
    # (profile, ACF) spec is opened ``copies`` times, so sessions sharing
    # an installation meet sessions that share none; the seed shuffles
    # the order and the tenant of each.  The warm round reopens the same
    # specs on the same core.
    "serve": {
        "kind": "serve",
        "profiles": ("bzip2", "gzip", "mcf"),
        "acfs": ("plain", "dise3"),
        "copies": 2,
        "scale": 0.5,
        "tenants": 2,
        "pool": 3,
        "steps": 1000,
        "min_step_requests": 1000,
        "min_passes": 4,
    },
}
