"""Drive-weighted integrals against references that share no code with
the rules.

Each value was computed once with mpmath 1.3 (not a dependency; nothing
here imports it) from the model alone, at 40 and at 48 digits, which
agree to 1.5e-31 relative or better:

- drive lambda0 = 0.01 (the exact value of its double), t_int = 100,
  l_c = 1; measure dw/2pi lambda0^2 sqrt(8 pi) t_int^2 e^{-2 w^2 t_int^2};
- Ohmic density S(x) = 2 x^alpha e^{-x^2} / Gamma((1 + alpha)/2) on
  x > 0, the channels as in the ``green`` module docstring;
- window +/- sqrt(ln 10^16 / 2)/t_int, widened by beta/(4 t_int^2) for
  the i-beta deficit, split at +/- gap (at 0 for the bare bath);
- each piece between split points halved, and each half integrated in
  the offset x from its own end, x = u^(1/alpha) below alpha 1 (which
  makes the edge's x^(alpha - 1) dx smooth in u) and x itself from
  alpha 1 on, by tanh-sinh (``mp.quad``) over 2 and 4 equal pieces of u.
  A channel term whose shift is that end takes x itself, so no digit of
  x is lost at an edge.  The adaptive rule does the same at a mapped
  nonzero edge, which the sub-Ohmic spin cells with a gap inside the
  window (0.003 to 0.02, alpha 0.1 to 0.5) need: their Bose factor
  1/(beta x) is largest where w - gap would round.

The three cells at non-integer alpha above 1, whose edges are inside the
window, take each parameter as the exact value of its double.  Their
edges carry x^(alpha - 1) with a non-integer power, which tanh-sinh
integrates in x at its double-exponential rate: with x = u^2 instead,
every value agrees to all 20 digits stored.

A value passes within 1e-11 of itself; chi2(v) within 1e-11 |1 - chi2|
plus 2^-52, the rounding of a value near 1.  The references store
T = 1 - chi2, and the drive window holds |w v| <= 0.043 at v = 1 and
<= 17 at v = 400.  The pure-bath deficit cancels pointwise and is left
out.  The worst cell of the sub-Ohmic spin map (gap 0.008577) has
W_ext = -1.0902264197414336e-3, within 1e-13 of the earlier 40-digit
figure -1.09022641974133178e-3.
"""

import pytest

from drivenbath import workstats

from conftest import make_spec

#: transform variables of the chi2 families
V = {"chi2_small": 1.0, "chi2_large": 400.0}

#: (coupling, alpha, beta, gap, p), then each family's reference; the
#: bare bath (coupling None) ignores gap and p
REFERENCES = [
    ((None, 0.5, 1.0, 0.0, 1.0), {
        "w_ext2": -1.2406026849614070329e-6,
        "channel_sum_integral": 3.9701312236440731909e-1,
        "chi2_small": (1.2406026849129513049e-6, -1.2405897627355709581e-6),
        "chi2_large": (9.9343635656144135226e-2, -1.0799796519627269535e-4),
    }),
    ((None, 1.0, 1.0, 0.0, 1.0), {
        "w_ext2": -1.2499062558590324084e-7,
        "channel_sum_integral": 1.9999541682239004733e-2,
        "chi2_small": (1.2499062557939403117e-7, -1.2498906329096252784e-7),
        "chi2_large": (8.6463249675024832115e-3, -6.7669333119039160918e-6),
    }),
    ((None, 5.0, 1.0, 0.0, 1.0), {
        "w_ext2": -5.858349724719319895e-16,
        "channel_sum_integral": 1.8747851732817045241e-11,
        "chi2_small": (5.8583497234379550084e-16, -5.8581788666507484315e-16),
        "chi2_large": (1.1488646251429383459e-11, 1.902925105809640271e-14),
    }),
    ((None, 1.0, 1000.0, 0.0, 1.0), {
        "w_ext2": -1.2499062558590324084e-7,
        "channel_sum_integral": 4.4789420507854993834e-5,
        "chi2_small": (5.0241120639910583884e-10, -1.2498906329096252784e-7),
        "chi2_large": (2.6042614171997484477e-5, -6.7669333119039160918e-6),
    }),
    (("spin", 0.5, 2.0, 0.05, 1.0), {
        "w_ext2": -4.8998367908280200777e-6,
        "i_beta_deficit": 8.9239766564128264595e-6,
        "channel_sum_integral": 3.4755983355711082165e-2,
        "chi2_small": (2.1904138995165382309e-7, -4.8997747615845779916e-6),
        "chi2_large": (1.5064303527454653752e-2, -2.587059205770888842e-4),
    }),
    (("spin", 1.0, 2.0, 0.02, 0.0), {
        "w_ext2": -1.2150804719220862227e-7,
        "i_beta_deficit": -1.1895850164177293083e-8,
        "channel_sum_integral": 1.0197072014117365499e-2,
        "chi2_small": (6.372903226147595872e-8, -1.2150652842816648019e-7),
        "chi2_large": (4.4084750474579797292e-3, -6.5783978437039105643e-6),
    }),
    (("spin", 5.0, 2.0, 0.02, 0.7), {
        "w_ext2": 8.8018466210774504106e-13,
        "i_beta_deficit": -1.8036077955055215832e-12,
        "channel_sum_integral": 1.0981554864029097547e-9,
        "chi2_small": (1.0784983671124083128e-14, 8.8017257757272467437e-13),
        "chi2_large": (5.5645085859025296111e-10, 3.8239024673603839561e-11),
    }),
    (("spin", 1.0, 1000.0, 5.0, 0.0), {
        "w_ext2": 1.7031862936440952292e-16,
        "i_beta_deficit": -2.3818687962170555302e-7,
        "channel_sum_integral": 1.390427094687875095e-12,
        "chi2_small": (8.7105345638769962254e-18, 1.7031649879974816872e-16),
        "chi2_large": (6.0156847208327078392e-13, 9.2062375363708760371e-15),
    }),
    (("fermion", 0.5, 2.0, 0.02, 1.0), {
        "w_ext2": 3.0855994405486463262e-7,
        "i_beta_deficit": -6.4342949230800774649e-7,
        "channel_sum_integral": 1.0750559455437662075e-3,
        "chi2_small": (6.5692748115390910453e-9, 3.0855598112772758617e-7),
        "chi2_large": (4.6185339233715329514e-4, 1.591930292457970306e-5),
    }),
    (("fermion", 1.0, 2.0, 0.02, 0.0), {
        "w_ext2": -1.2982646499726416613e-7,
        "i_beta_deficit": 2.5454991809670291459e-7,
        "channel_sum_integral": 2.0415278288343834198e-4,
        "chi2_small": (1.2789573568075376007e-9, -1.2982484281908232354e-7),
        "chi2_large": (8.832554386320214747e-5, -7.0290443727918107444e-6),
    }),
    (("fermion", 5.0, 2.0, 0.02, 0.7), {
        "w_ext2": 2.3028499524511829948e-14,
        "i_beta_deficit": -4.7261052720895931539e-14,
        "channel_sum_integral": 2.574959557986847959e-11,
        "chi2_small": (3.0032485801391231567e-16, 2.3028162344952516417e-14),
        "chi2_large": (1.3848703287037574948e-11, 8.2390592886081463516e-13),
    }),
    (("fermion", 1.0, 1000.0, 5.0, 0.0), {
        "w_ext2": 1.7031862936440952292e-16,
        "i_beta_deficit": -2.3818687962170555302e-7,
        "channel_sum_integral": 1.390427094687875095e-12,
        "chi2_small": (8.7105345638769962254e-18, 1.7031649879974816872e-16),
        "chi2_large": (6.0156847208327078392e-13, 9.2062375363708760371e-15),
    }),
    (("fermion", 0.5, 1000.0, 0.005, 1.0), {
        "w_ext2": -4.9402734664220934588e-8,
        "i_beta_deficit": 8.7869762418930262202e-6,
        "channel_sum_integral": 1.7750944419572248983e-5,
        "chi2_small": (1.4612470850682352645e-10, -4.9402430610539176382e-8),
        "chi2_large": (1.3482503702417840448e-5, -6.0647831296888858564e-6),
    }),
    (("topological", 0.5, 2.0, 0.02, 1.0), {
        "w_ext2": 3.2855618289566356751e-7,
        "i_beta_deficit": -6.840116804379371845e-7,
        "channel_sum_integral": 1.0976625921581273518e-3,
        "chi2_small": (6.7162015988101330116e-9, 3.2855197195040189396e-7),
        "chi2_large": (4.7174582998772201072e-4, 1.7017362306998168105e-5),
    }),
    (("topological", 1.0, 2.0, 0.02, 0.0), {
        "w_ext2": -1.248327943687913343e-7,
        "i_beta_deficit": 2.4468071441582124714e-7,
        "channel_sum_integral": 1.9990573991238369971e-4,
        "chi2_small": (1.2492991586842332187e-9, -1.2483123460278825212e-7),
        "chi2_large": (8.6421962990974497396e-5, -6.7586443821268409714e-6),
    }),
    (("topological", 5.0, 2.0, 0.02, 0.7), {
        "w_ext2": 2.4965993775477929337e-14,
        "i_beta_deficit": -5.1149812225517023686e-14,
        "channel_sum_integral": 2.599635895245891711e-11,
        "chi2_small": (3.0370499931164313622e-16, 2.4965625379096285403e-14),
        "chi2_large": (1.3988156883469278836e-11, 8.7181825931692095974e-13),
    }),
    (("topological", 1.0, 1000.0, 5.0, 0.0), {
        "w_ext2": 8.5159314682204761459e-17,
        "i_beta_deficit": -1.1909343981085277651e-7,
        "channel_sum_integral": 6.952135473439375475e-13,
        "chi2_small": (4.3552672819384981127e-18, 8.5158249399874084359e-17),
        "chi2_large": (3.0078423604163539196e-13, 4.6031187681854380185e-15),
    }),
    (("topological", 0.3, 1.0, 0.003, 0.0), {
        "w_ext2": -5.2490298328135872441e-7,
        "i_beta_deficit": 5.1480151695830370676e-7,
        "channel_sum_integral": 1.3415767076453701749e-3,
        "chi2_small": (1.0104656759936099207e-8, -5.2489965247928275234e-7),
        "chi2_large": (6.3180090077418343015e-4, -8.7711893254284579582e-5),
    }),
    (("spin", 0.5, 1.0, 0.003, 0.5), {
        "w_ext2": -1.136861471863192147e-6,
        "i_beta_deficit": -3.8480236587625894308e-7,
        "channel_sum_integral": 3.6382132506066763188e-1,
        "chi2_small": (1.5216625608693220489e-6, -1.1368488286413366366e-6),
        "chi2_large": (1.3418765186591289071e-1, -7.8851218152988638632e-5),
    }),
    (("spin", 1.128, 67.2, 0.0218, 0.0), {
        "w_ext2": -1.4164504894625662654e-7,
        "i_beta_deficit": -5.0228160006842886287e-7,
        "channel_sum_integral": 3.6088085686031225637e-4,
        "chi2_small": (2.2756367406096979209e-9, -1.4164327543192444094e-7),
        "chi2_large": (1.5647815884337972097e-4, -7.6533206321717450164e-6),
    }),
    (("topological", 1.217, 0.885, 0.00695, 0.738), {
        "w_ext2": 2.1521351616756069434e-8,
        "i_beta_deficit": -1.9222058158990583893e-8,
        "channel_sum_integral": 2.7736535373816103191e-5,
        "chi2_small": (2.2407235845741725102e-10, 2.1521120162579834388e-8),
        "chi2_large": (1.2725696441578072919e-5, 1.5463216034185220941e-6),
    }),
    (("spin", 1.5, 1.0, 0.003, 0.5), {
        "w_ext2": -1.3060388688835786327e-8,
        "i_beta_deficit": 1.3207941757177091717e-9,
        "channel_sum_integral": 1.3932073835373724567e-3,
        "chi2_small": (1.1739603720028106174e-8, -1.3060206491538770527e-8),
        "chi2_large": (6.9133500600175413241e-4, -5.0879877667067412194e-7),
    }),
    (("spin", 0.5, 2.0, 0.02, 1.0), {
        "w_ext2": -2.1609765262963746576e-5,
        "i_beta_deficit": 4.1659709998109925673e-5,
        "channel_sum_integral": 5.8182054015053559475e-2,
        "chi2_small": (3.9057427040063268567e-7, -2.1609448954852047497e-5),
        "chi2_large": (2.5552012615542385931e-2, -9.4649321527500027591e-4),
    }),
    (("spin", 0.3, 1000.0, 0.01, 0.3), {
        "w_ext2": -1.0507842668134693441e-6,
        "i_beta_deficit": -1.4679884660858758865,
        "channel_sum_integral": 2.5897874030831538279e-3,
        "chi2_small": (1.7467470668397890991e-8, -1.0507689322778510964e-6),
        "chi2_large": (1.1491207942756088343e-3, -5.1155206290458258019e-5),
    }),
    (("spin", 0.3, 1.0, 0.008577, 0.9), {
        "w_ext2": -1.0902264197414335595e-3,
        "i_beta_deficit": 1.0831206047534989064e-3,
        "channel_sum_integral": 6.8514172092418460148e-1,
        "chi2_small": (7.1181293686617674543e-6, -1.090214019515819536e-3),
        "chi2_large": (4.345761891750433323e-1, -5.5671464492439113586e-3),
    }),
    (("spin", 0.1, 1.0, 0.003, 0.0), {
        "w_ext2": 1.3288303515870774114e-2,
        "i_beta_deficit": -1.3314505880918848751e-2,
        "channel_sum_integral": 9.9762167237500356354,
        "chi2_small": (2.6177559646393384344e-5, 1.3288278810538218821e-2),
        "chi2_large": (3.2605372308492715107, 3.9578894264314743532),
    }),
    (("spin", 0.1, 1000.0, 0.003, 0.0), {
        "w_ext2": 5.6446413872927270374e-6,
        "i_beta_deficit": -9.4983392513891055722e-2,
        "channel_sum_integral": 1.3462716098572860074e-2,
        "chi2_small": (4.4276198750771049564e-8, 5.644687328828178394e-6),
        "chi2_large": (4.4406760119266756888e-3, 3.20309454480506617e-3),
    }),
]


def check(cell, family, reference):
    coupling, alpha, beta, gap, p = cell
    spec = make_spec(beta=beta, alpha=alpha, coupling=coupling,
                     omega_gap=gap, p=p)
    if family in V:
        t = complex(*reference)
        value = workstats.chi2(V[family], spec)
        assert abs(value - (1.0 - t)) <= 1e-11 * abs(t) + 2.0 ** -52
    else:
        value = getattr(workstats, family)(spec)
        assert abs(value - reference) <= 1e-11 * abs(reference)


def cell_id(cell, family):
    coupling, alpha, beta, gap, p = cell
    if coupling is None:
        return f"bare-a{alpha:g}-b{beta:g}-{family}"
    return f"{coupling}-a{alpha:g}-b{beta:g}-gap{gap:g}-p{p:g}-{family}"


@pytest.mark.parametrize("cell, family, reference", [
    pytest.param(cell, family, value, id=cell_id(cell, family))
    for cell, values in REFERENCES for family, value in values.items()])
def test_matches_reference(cell, family, reference):
    check(cell, family, reference)
