"""The search walker's outputs, pinned: per case, the hit count and the sha256 of the sorted
upper-triangle coefficient vectors, one line each with space-separated entries.

The cases are ``enumerate_classes`` on the n = 2 box (u <= 2, d <= 3, bound <= 3) in its
profile-only, idempotent and typed modes, and both ``scan_ppav`` backends on the period
matrices of ``perfbench``'s search grid at seed 1.  The pins were recorded at commit 59fa11e;
a change to the walker that changes no output leaves every one of them as it is.
"""

import hashlib
from functools import cache

import pytest

from nsforge import (
    EnumerationSpec,
    PeriodMatrix,
    QQi,
    enumerate_classes,
    is_realizable,
    moebius,
    random_symplectic,
    scan_ppav,
    standard_witness,
)

from conftest import type22_class


def digest(vectors):
    text = "\n".join(" ".join(map(str, vec)) for vec in sorted(vectors))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def search_grid():
    """The period matrices of ``perfbench/workloads.py``'s ``Search`` at seed 1, by name: the
    conjugating words' seeds and the float entries are those that ``random.Random("search:1")``
    and ``random.Random(99)`` draw there."""
    diag = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
    conjugate = lambda n, seed, tau: moebius(random_symplectic(n, seed, 3), tau)
    seeded = [[0.00517114272137198 + 1.2802720257872577j, 0.3400311669335515 + 0.00726064782606832j],
              [0.3400311669335515 + 0.00726064782606832j, -0.2228293331116376 + 2.2805709820039413j]]
    criterion = [[-0.11522631006760042 + 1.3j, -0.2569581435307102 - 0.05031373629980625j],
                 [-0.2569581435307102 - 0.05031373629980625j, -0.3599094665100655 + 2.1j]]
    return {
        "diag": diag,
        "conjugated diag": conjugate(2, 111985490, diag),
        "conjugated witness n=2": conjugate(2, 77371072, standard_witness(2, 1, (2,))[0]),
        "conjugated witness n=3": conjugate(3, 656172355, standard_witness(3, 1, (2,))[0]),
        "golden witness n=4": is_realizable(type22_class()).tau,
        "seeded float": PeriodMatrix.from_float(seeded),
        "criterion 9 float": PeriodMatrix.from_float(criterion),
    }


# (u, d, bound, mode, hits, sha256); mode is "profile", "idempotent" or the required type
ENUM_PINS = [
    (1, 1, 1, 'profile', 66,
     "957247447a14d671044c92e849f18366488c3171c29d7774f5a54678374687b3"),
    (1, 1, 1, 'idempotent', 66,
     "957247447a14d671044c92e849f18366488c3171c29d7774f5a54678374687b3"),
    (1, 1, 1, (1,), 66,
     "957247447a14d671044c92e849f18366488c3171c29d7774f5a54678374687b3"),
    (1, 1, 2, 'profile', 442,
     "c79d5c151eb77980286261d0abc20bea9eae9fe74d8c083e66aabaceec28ca89"),
    (1, 1, 2, 'idempotent', 442,
     "c79d5c151eb77980286261d0abc20bea9eae9fe74d8c083e66aabaceec28ca89"),
    (1, 1, 2, (1,), 442,
     "c79d5c151eb77980286261d0abc20bea9eae9fe74d8c083e66aabaceec28ca89"),
    (1, 1, 3, 'profile', 1194,
     "1bfcb20d9f91362a7b02e6490776dd554adb91d7d29605e657e156daef088be1"),
    (1, 1, 3, 'idempotent', 1194,
     "1bfcb20d9f91362a7b02e6490776dd554adb91d7d29605e657e156daef088be1"),
    (1, 1, 3, (1,), 1194,
     "1bfcb20d9f91362a7b02e6490776dd554adb91d7d29605e657e156daef088be1"),
    (1, 2, 1, 'profile', 20,
     "bc9c5985fddcf2eed7af77b0a86889320b98722493cc9ba10cb7031377c304e7"),
    (1, 2, 1, 'idempotent', 20,
     "bc9c5985fddcf2eed7af77b0a86889320b98722493cc9ba10cb7031377c304e7"),
    (1, 2, 1, (2,), 20,
     "bc9c5985fddcf2eed7af77b0a86889320b98722493cc9ba10cb7031377c304e7"),
    (1, 2, 2, 'profile', 244,
     "0e3f4b3c0b93e8cac7bf0f46018563e3a260b8f35b12b1fce1b0957e581abec0"),
    (1, 2, 2, 'idempotent', 244,
     "0e3f4b3c0b93e8cac7bf0f46018563e3a260b8f35b12b1fce1b0957e581abec0"),
    (1, 2, 2, (2,), 244,
     "0e3f4b3c0b93e8cac7bf0f46018563e3a260b8f35b12b1fce1b0957e581abec0"),
    (1, 2, 3, 'profile', 980,
     "1811ea548e8ac7a76f48bb6e5201527fe3493447b3471bef4458bdd6f118d5ed"),
    (1, 2, 3, 'idempotent', 980,
     "1811ea548e8ac7a76f48bb6e5201527fe3493447b3471bef4458bdd6f118d5ed"),
    (1, 2, 3, (2,), 980,
     "1811ea548e8ac7a76f48bb6e5201527fe3493447b3471bef4458bdd6f118d5ed"),
    (1, 3, 1, 'profile', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 3, 1, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 3, 1, (3,), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 3, 2, 'profile', 184,
     "2ea85b09eefcbee99eca8568c986a4b6fd5aad6e57ee8bf8bb207594d9e942a5"),
    (1, 3, 2, 'idempotent', 184,
     "2ea85b09eefcbee99eca8568c986a4b6fd5aad6e57ee8bf8bb207594d9e942a5"),
    (1, 3, 2, (3,), 184,
     "2ea85b09eefcbee99eca8568c986a4b6fd5aad6e57ee8bf8bb207594d9e942a5"),
    (1, 3, 3, 'profile', 824,
     "2b6f939cd2d27f434c112ec404c4aee2a3aa950fb9c607b5fa02d8e2dd0d70c0"),
    (1, 3, 3, 'idempotent', 824,
     "2b6f939cd2d27f434c112ec404c4aee2a3aa950fb9c607b5fa02d8e2dd0d70c0"),
    (1, 3, 3, (3,), 824,
     "2b6f939cd2d27f434c112ec404c4aee2a3aa950fb9c607b5fa02d8e2dd0d70c0"),
    (2, 1, 1, 'profile', 33,
     "dca946a4838c0244a1e49ea28b0f3e0ebf2ef3ce1fbf1fad523c312ec1e9d2b4"),
    (2, 1, 1, 'idempotent', 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 1, 1, (1, 1), 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 1, 2, 'profile', 233,
     "3f7e6fdc47bd28efcb2c64bf551531373fb8e1b535b22c1e6f8ce97d17a8e8db"),
    (2, 1, 2, 'idempotent', 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 1, 2, (1, 1), 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 1, 3, 'profile', 753,
     "4f644314380c1632b7810e60e81668c0386e77e012430a9c04716df6bffc8472"),
    (2, 1, 3, 'idempotent', 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 1, 3, (1, 1), 1,
     "ebd10f1f11725945cce82d7a5cd59bd8170b8fc40116a7bb2d0d322a0ebeee35"),
    (2, 2, 1, 'profile', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 1, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 1, (1, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 1, (2, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 2, 'profile', 96,
     "7d45131955197797e78f54348b2b766aa698441ec74d962dd1635cb005eab37b"),
    (2, 2, 2, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 2, (1, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 2, (2, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 3, 'profile', 488,
     "942c8651fbcc7190f771f8f8e3f032908d26e9b35463f47be0bd8397fb9b0be5"),
    (2, 2, 3, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 3, (1, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 3, (2, 2), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 1, 'profile', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 1, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 1, (1, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 1, (3, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 2, 'profile', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 2, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 2, (1, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 2, (3, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 3, 'profile', 256,
     "66cccf671faf0274c64cc2b3fe22c964d200408358d54e98224d55f3e7bd7a28"),
    (2, 3, 3, 'idempotent', 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 3, (1, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 3, 3, (3, 3), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

# (grid period matrix, backend, u, d, bound, hits, sha256)
SCAN_PINS = [
    ('diag', 'exact', 1, 1, 1, 2,
     "40415aa72e435ef96ff570c321fe62561d8407c61f9132a831daaf7143a2365f"),
    ('diag', 'float', 1, 1, 1, 2,
     "40415aa72e435ef96ff570c321fe62561d8407c61f9132a831daaf7143a2365f"),
    ('diag', 'exact', 1, 2, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('diag', 'float', 1, 2, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated diag', 'exact', 1, 1, 2, 2,
     "b28524dd008990d2ac921c8956648dd6d1f16bd860362d721c829a8b3c4a4758"),
    ('conjugated diag', 'float', 1, 1, 2, 2,
     "b28524dd008990d2ac921c8956648dd6d1f16bd860362d721c829a8b3c4a4758"),
    ('conjugated diag', 'exact', 1, 1, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated diag', 'float', 1, 1, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated witness n=2', 'exact', 1, 2, 2, 2,
     "6b8c65275f88cae766bcff1298eab7c040744466cc4a5b0034dcab79bf6e725c"),
    ('conjugated witness n=2', 'float', 1, 2, 2, 2,
     "6b8c65275f88cae766bcff1298eab7c040744466cc4a5b0034dcab79bf6e725c"),
    ('conjugated witness n=2', 'exact', 1, 2, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated witness n=2', 'float', 1, 2, 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated witness n=3', 'exact', 1, 2, 1, 2,
     "107cacab4a6b701da2c695ba13a61175316d17a855a4b6ba320149184c92a074"),
    ('golden witness n=4', 'exact', 2, 2, 1, 12,
     "ed5e52ce1479f571afcf600c41d5c14ea3cfc37ec99b21042f10f3870a21e8fa"),
    ('diag', 'exact', 1, 1, 3, 2,
     "40415aa72e435ef96ff570c321fe62561d8407c61f9132a831daaf7143a2365f"),
    ('diag', 'float', 1, 1, 3, 2,
     "40415aa72e435ef96ff570c321fe62561d8407c61f9132a831daaf7143a2365f"),
    ('diag', 'exact', 1, 2, 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('diag', 'float', 1, 2, 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('conjugated diag', 'exact', 1, 1, 3, 2,
     "b28524dd008990d2ac921c8956648dd6d1f16bd860362d721c829a8b3c4a4758"),
    ('conjugated diag', 'float', 1, 1, 3, 2,
     "b28524dd008990d2ac921c8956648dd6d1f16bd860362d721c829a8b3c4a4758"),
    ('conjugated witness n=2', 'exact', 1, 2, 3, 4,
     "726fd714f44ee711dd87853e4f8e265f50ad6b1ed69969e5b51039269220c9e0"),
    ('conjugated witness n=2', 'float', 1, 2, 3, 4,
     "726fd714f44ee711dd87853e4f8e265f50ad6b1ed69969e5b51039269220c9e0"),
    ('seeded float', 'float', 1, 1, 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('criterion 9 float', 'float', 1, 1, 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("u,d,bound,mode,hits,sha", ENUM_PINS)
def test_enumeration_is_pinned(u, d, bound, mode, hits, sha):
    kw = {"profile": {}, "idempotent": {"require_idempotent": True}}.get(mode, {"require_type": mode})
    classes = enumerate_classes(EnumerationSpec(2, u, d, bound, **kw))
    assert (len(classes), digest(eta.coefficient_vector() for eta in classes)) == (hits, sha)


@pytest.mark.parametrize("name,backend,u,d,bound,hits,sha", SCAN_PINS)
def test_scan_is_pinned(name, backend, u, d, bound, hits, sha):
    tau = search_grid()[name]
    reports = scan_ppav(tau if backend == tau.backend else tau.to_float(), u, d, bound)
    assert (len(reports), digest(r.eta.coefficient_vector() for r in reports)) == (hits, sha)
