"""Pin the scheme-independent analysis the levels pass reads.

``test_space_annotations_are_pinned`` pins what the levels pass makes
of an analysis; this pins the analysis itself, so a change to strand
partitioning, reaching definitions or web building that happens not to
move one of those annotations still shows.
"""

import hashlib
import json

from repro.alloc.analysis import analyze_kernel
from repro.alloc.webs import _LocalReaching
from repro.workloads.generators import generate_workload
from repro.workloads.suites import all_workloads

#: SHA-256 over :func:`_analysis_document` of every kernel below, under
#: both persistence flavours: the 36 suite kernels at scale 1.0, then
#: fuzz seeds 0-49 with one warp.
ANALYSIS_DIGEST = (
    "b5f2809b22c966cac13b314a704ff8d4bf6c1e5b6783db8fd508d3f6f05ad8d9"
)


def _read_key(read):
    return [read.site.ref.position, read.site.slot]


def _analysis_document(analysis):
    """Every field of ``analysis`` the levels pass reads, as sorted
    JSON-able lists."""
    partition = analysis.partition
    reaching = analysis.reaching
    local = _LocalReaching(analysis.kernel, partition, reaching)
    reads = sorted(
        [
            site.ref.position,
            site.slot,
            site.reg.name,
            sorted(reaching.reaching_defs(site.ref, site.slot)),
            sorted(local.local_defs(site.ref, site.slot)),
        ]
        for site in reaching.reads()
    )
    webs = []
    groups = []
    for values in analysis.strand_values:
        for web in values.webs:
            webs.append([
                web.strand_id,
                web.web_id,
                web.reg.name,
                sorted(d.def_id for d in web.defs),
                [unit.value for unit in web.def_units],
                web.live_out,
                sorted(
                    _read_key(read)
                    + [read.shared_unit, read.mixed, read.divergence_unsafe]
                    for read in web.reads
                ),
            ])
        for group in values.read_candidates:
            groups.append([
                group.strand_id,
                group.reg.name,
                sorted(_read_key(read) + [read.shared_unit]
                       for read in group.reads),
                sorted(_read_key(read) for read in group.coverable_reads),
            ])
    return {
        "strands": [
            [list(strand.anchor), [ref.position for ref in strand.refs]]
            for strand in partition.strands
        ],
        "cut_before": sorted(
            [position, kind.value]
            for position, kind in partition.cut_before.items()
        ),
        "entry_cuts": sorted(
            [block, kind.value]
            for block, kind in partition.entry_cuts.items()
        ),
        "ends_strand": sorted(partition.ends_strand_positions),
        "reads": reads,
        "webs": sorted(webs),
        "read_operand_groups": sorted(groups),
    }


def test_analysis_is_pinned():
    kernels = [spec.kernel for spec in all_workloads(1.0)]
    kernels += [
        generate_workload(seed, num_warps=1).kernel for seed in range(50)
    ]
    hasher = hashlib.sha256()
    for kernel in kernels:
        for persistent in (False, True):
            document = _analysis_document(analyze_kernel(kernel, persistent))
            hasher.update(json.dumps(document, sort_keys=True).encode())
    assert hasher.hexdigest() == ANALYSIS_DIGEST
