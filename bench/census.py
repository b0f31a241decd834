"""Census-income-shaped CSV generator for the ``dataset_builtin`` workload.

The file mimics the layout of the public census income export that the
bundled ``adult`` preset reads: the same fifteen columns, ", "-separated
cells, ``?`` in the workclass / occupation / native-country column of a
fixed share of the rows (so the kept rows, and with them the horizon, do
not depend on the seed), a near-unique ``fnlwgt`` column, and labels written
both as ``>50K`` / ``<=50K`` and with the trailing period of the test half.

The label is drawn from a logistic score of education, age, hours, marital
status, sex and capital gain, so trained experts can beat the majority
class.  ``generate`` returns what it planted, counted here rather than read
back through the program, so the benchmark can check the program against it.
"""

from __future__ import annotations

import numpy as np

HEADER = ("age", "workclass", "fnlwgt", "education", "education-num",
          "marital-status", "occupation", "relationship", "race", "sex",
          "capital-gain", "capital-loss", "hours-per-week", "native-country",
          "income")

WORKCLASS = ("Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay")
EDUCATION = (("Preschool", 1), ("1st-4th", 2), ("5th-6th", 3), ("7th-8th", 4),
             ("9th", 5), ("10th", 6), ("11th", 7), ("12th", 8), ("HS-grad", 9),
             ("Some-college", 10), ("Assoc-voc", 11), ("Assoc-acdm", 12),
             ("Bachelors", 13), ("Masters", 14), ("Prof-school", 15),
             ("Doctorate", 16))
EDUCATION_P = (0.002, 0.005, 0.01, 0.02, 0.016, 0.028, 0.036, 0.013, 0.322,
               0.223, 0.042, 0.033, 0.164, 0.054, 0.017, 0.015)
MARITAL = ("Married-civ-spouse", "Never-married", "Divorced", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse")
MARITAL_P = (0.46, 0.33, 0.136, 0.031, 0.031, 0.011, 0.001)
OCCUPATION = ("Tech-support", "Craft-repair", "Other-service", "Sales",
              "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
              "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
              "Transport-moving", "Priv-house-serv", "Protective-serv",
              "Armed-Forces")
RELATIONSHIP = ("Wife", "Own-child", "Husband", "Not-in-family",
                "Other-relative", "Unmarried")
RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
RACE_P = (0.855, 0.096, 0.031, 0.01, 0.008)
COUNTRY = ("United-States", "Mexico", "Philippines", "Germany", "Canada",
           "Puerto-Rico", "El-Salvador", "India", "Cuba", "England", "China",
           "Jamaica", "South", "Italy", "Dominican-Republic", "Vietnam",
           "Guatemala", "Japan", "Poland", "Columbia")
# Columns that carry the planted "?" cells, as in the public export.
MISSING_COLUMNS = ("workclass", "occupation", "native-country")
TEST_HALF_SHARE = 1.0 / 3.0   # labels written with the trailing period


def generate(path, seed: int, rows: int, missing_share: float) -> dict:
    """Write ``rows`` data rows to ``path``; return what was planted.

    The result holds the rows written, the rows with a ``?`` feature cell,
    the (group, label) counts of the kept rows (group A is race == White,
    the positive label is income >50K) and the kept rows' majority-class
    error rate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    age = rng.integers(17, 91, size=rows)
    workclass = rng.choice(len(WORKCLASS), size=rows,
                           p=(0.74, 0.08, 0.035, 0.03, 0.065, 0.04, 0.01))
    fnlwgt = rng.integers(12285, 1490401, size=rows)
    edu = rng.choice(len(EDUCATION), size=rows, p=EDUCATION_P)
    marital = rng.choice(len(MARITAL), size=rows, p=MARITAL_P)
    occupation = rng.integers(0, len(OCCUPATION), size=rows)
    relationship = rng.integers(0, len(RELATIONSHIP), size=rows)
    race = rng.choice(len(RACE), size=rows, p=RACE_P)
    male = rng.random(rows) < 0.67
    big_gain = rng.random(rows) < 0.08
    gain = np.where(big_gain, rng.integers(3000, 100000, size=rows), 0)
    has_loss = rng.random(rows) < 0.05
    loss = np.where(has_loss, rng.integers(150, 4400, size=rows), 0)
    hours = np.clip(np.round(rng.normal(40.0, 12.0, size=rows)), 1, 99).astype(int)
    country = np.where(rng.random(rows) < 0.9, 0,
                       rng.integers(1, len(COUNTRY), size=rows))
    label_u = rng.random(rows)
    period_u = rng.random(rows)
    missing = np.zeros(rows, dtype=bool)
    missing[rng.choice(rows, size=round(missing_share * rows), replace=False)] = True
    missing_col = rng.integers(0, len(MISSING_COLUMNS), size=rows)

    edu_num = np.array([EDUCATION[e][1] for e in edu])
    married = marital == 0
    score = (-11.0 + 0.45 * edu_num + 0.04 * age + 0.035 * hours
             + 2.0 * married + 0.5 * male + 2.5 * big_gain - 0.4 * (race != 0))
    positive = label_u < 1.0 / (1.0 + np.exp(-score))

    counts = [[0, 0], [0, 0]]   # kept rows, [group][label], group 0 = A
    missing_rows = 0
    lines = [", ".join(HEADER)]
    for i in range(rows):
        cells = {
            "age": str(age[i]),
            "workclass": WORKCLASS[workclass[i]],
            "fnlwgt": str(fnlwgt[i]),
            "education": EDUCATION[edu[i]][0],
            "education-num": str(edu_num[i]),
            "marital-status": MARITAL[marital[i]],
            "occupation": OCCUPATION[occupation[i]],
            "relationship": RELATIONSHIP[relationship[i]],
            "race": RACE[race[i]],
            "sex": "Male" if male[i] else "Female",
            "capital-gain": str(gain[i]),
            "capital-loss": str(loss[i]),
            "hours-per-week": str(hours[i]),
            "native-country": COUNTRY[country[i]],
        }
        label = ">50K" if positive[i] else "<=50K"
        cells["income"] = label + "." if period_u[i] < TEST_HALF_SHARE else label
        if missing[i]:
            cells[MISSING_COLUMNS[missing_col[i]]] = "?"
            missing_rows += 1
        else:
            counts[0 if race[i] == 0 else 1][int(positive[i])] += 1
        lines.append(", ".join(cells[h] for h in HEADER))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    kept = rows - missing_rows
    pos = counts[0][1] + counts[1][1]
    return {
        "rows_written": rows,
        "rows_missing": missing_rows,
        "rows_kept": kept,
        "counts": counts,
        "majority_error": min(pos, kept - pos) / kept,
    }
