"""The moduli sweep's lattices and cases, shared by the tests that walk it."""

from toruslie import torusgroup as tg
from toruslie.lattice import Lattice, TorsionPoint

#: the moduli sweep's lattices: random_taus(default_rng(7), 12) of
#: bench/workloads.py written out, and its four fixed lattices
SWEEP_TAUS = [
    -0.5893857908086169 + 1.2735055474703787j,
    0.39853471437602295 + 0.4601842813566953j,
    2.23396747642186 + 2.22753101665419j,
    -2.8484837865903434 + 0.8261519606790553j,
    -2.3607871939496134 + 1.7388668289443447j,
    -1.3725652061729374 + 2.827555502964597j,
    1.2225381529413237 + 1.8568694641868244j,
    0.7522741294789768 + 1.4399254913299668j,
    -1.7232513239627538 + 0.6377573610354215j,
    -0.002249858282803885 + 2.5876390409136865j,
    1.8963309596068765 + 2.397185404513006j,
    2.811089614720582 + 0.9383557638036008j,
    2.5j,
    3.5j,
    0.49 + 0.9j,
    7.3 + 0.2j,
]
#: the cyclic and dihedral orders of the sweep
SWEEP_ORDERS = (2, 3, 5, 6, 7, 8)
#: (a, b, label) of the torsion shifts (a + b tau)/N
SHIFTS = ((1, 0, "1/N"), (0, 1, "tau/N"), (1, 1, "(1+tau)/N"))


def sweep_cases(tau: complex, orders=SWEEP_ORDERS) -> list:
    """(label, embedding) of rot2, c2c2, and cn/dn for each N in orders at
    the shifts 1/N, tau/N and (1+tau)/N, in that order."""
    lat = Lattice(tau)
    out = [("rot2", tg.cl_rotation(lat, 2)), ("c2c2", tg.c2c2_translation(lat))]
    for n in orders:
        for a, b, label in SHIFTS:
            shift = TorsionPoint(a, b, n)
            out += [
                (f"cn{n} {label}", tg.cn_translation(lat, n, shift)),
                (f"dn{n} {label}", tg.dn_group(lat, n, shift)),
            ]
    return out
