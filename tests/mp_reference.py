"""The mpmath oracle that the tests and tests/data/moved_rows.py share: it
needs only mpmath and a field's unit, so a script can use it without the
test frameworks."""

import mpmath as mp


def mp_binomial_reference(field, s, kind):
    """Z of the kind by the unsplit binomial series in mpmath, with
    0.75 |Im s| + 0.5 |Re s| extra digits for the cancellation of its terms
    (for a norm +1 field the even series of eps^(1/2), its full zeta)."""
    eps = field.eps
    with mp.workdps(40 + int(0.75 * abs(s.imag) + 0.5 * abs(s.real))):
        log_eta = mp.log((eps.a + eps.b * mp.sqrt(eps.q)) / 2)
        if not field.is_norm_minus_one:
            log_eta /= 2
            kind = "even"
        sm = mp.mpc(s)
        total, coeff, k = mp.mpc(0), mp.mpc(1), 0
        small = mp.mpf(10) ** (-mp.mp.dps + 5)
        while True:
            u = mp.exp(-(sm + 2 * k) * log_eta)
            if kind == "odd":
                term = coeff * u / (1 - u * u)
            elif kind == "even":
                term = coeff * (-1) ** k * u * u / (1 - u * u)
            else:
                term = coeff * u / (1 - (-1) ** k * u)
            total += term
            # <= ends the sum where the terms vanish, as at s = -1 (odd)
            if k > abs(s) + 5 and abs(term) <= small * abs(total):
                return complex(mp.exp(sm / 2 * mp.log(eps.q)) * total)
            coeff *= (-sm - k) / (k + 1)
            k += 1
