"""The paper's worked examples as executable experiments.

Every figure of the evaluation-by-example (Figures 2, 5-8, 10, 11, 13,
14, plus the Table 1 negative case) is encoded here once and reused by
the test suite, the benchmark suite, and EXPERIMENTS.md generation.
"""

from __future__ import annotations

from repro.bench.harness import Experiment, bench_scale
from repro.catalog.sample import credit_card_catalog
from repro.engine.database import Database
from repro.workloads.datagen import GeneratorConfig, bench_config, populate_credit_db

# ---------------------------------------------------------------------------
# AST definitions (subsumers), straight from the figures
# ---------------------------------------------------------------------------
AST1 = """
select faid, flid, year(date) as year, count(*) as cnt
from Trans
group by faid, flid, year(date)
"""

AST2 = """
select tid, faid, fpgid, status, country, price, qty, disc, qty * price as value
from Trans, Loc, Acct
where lid = flid and faid = aid and disc > 0.1
"""

AST4 = """
select year(date) as year, month(date) as month, sum(qty * price) as value
from Trans
group by year(date), month(date)
"""

AST6 = AST4  # Figure 7 reuses the monthly-value summary

AST7 = """
select flid, year(date) as year, count(*) as cnt
from Trans
group by flid, year(date)
"""

AST8 = """
select year, tcnt, count(*) as mcnt
from (select year(date) as year, month(date) as month, count(*) as tcnt
      from Trans
      group by year(date), month(date))
group by year, tcnt
"""

AST10 = """
select flid, year(date) as year, count(*) as cnt,
       (select count(*) from Trans) as totcnt
from Trans
group by flid, year(date)
"""

#: Table 1's modified AST10: the HAVING clause loses groups the query needs.
AST10_WITH_HAVING = """
select flid, year(date) as year, count(*) as cnt
from Trans
group by flid, year(date)
having count(*) > 2
"""

AST11 = """
select flid, faid, year(date) as year, month(date) as month, count(*) as cnt
from Trans
group by grouping sets ((flid, faid, year(date)), (flid, year(date)),
                        (flid, year(date), month(date)))
"""

AST12 = """
select flid, faid, year(date) as year, month(date) as month, count(*) as cnt
from Trans
group by grouping sets ((flid, faid, year(date)), (flid, year(date)),
                        (flid, year(date), month(date)), (year(date)))
"""

# ---------------------------------------------------------------------------
# Queries (subsumees)
# ---------------------------------------------------------------------------
Q1 = """
select faid, state, year(date) as year, count(*) as cnt
from Trans, Loc
where flid = lid and country = 'USA'
group by faid, state, year(date)
having count(*) > 100
"""

Q2 = """
select aid, status, qty * price * (1 - disc) as amt
from Trans, PGroup, Acct
where pgid = fpgid and faid = aid and price > 100 and disc > 0.1
      and pgname = 'TV'
"""

Q4 = """
select year(date) as year, sum(qty * price) as value
from Trans
group by year(date)
"""

Q6 = """
select year(date) % 100 as yr, sum(qty * price) as value
from Trans
where month(date) >= 6
group by year(date) % 100
"""

Q7 = """
select lid, year(date) as year, count(*) as cnt
from Trans, Loc
where flid = lid and country = 'USA'
group by lid, year(date)
"""

Q8 = """
select tcnt, count(*) as ycnt
from (select year(date) as year, count(*) as tcnt
      from Trans
      group by year(date))
group by tcnt
"""

Q10 = """
select flid, count(*) / (select count(*) from Trans) as cntpct
from Trans, Loc
where flid = lid and country = 'USA'
group by flid
having count(*) > 2
"""

Q11_1 = """
select flid, year(date) as year, count(*) as cnt
from Trans
where year(date) > 1990
group by flid, year(date)
"""

Q11_2 = """
select flid, year(date) as year, count(*) as cnt
from Trans
where month(date) >= 6
group by flid, year(date)
"""

Q11_3 = """
select flid, year(date) as year, month(date) as month,
       count(distinct faid) as custcnt
from Trans
group by flid, year(date), month(date)
"""

Q12_1 = """
select flid, year(date) as year, count(*) as cnt
from Trans
where year(date) > 1990
group by grouping sets ((flid, year(date)), (year(date)))
"""

Q12_2 = """
select flid, year(date) as year, count(*) as cnt
from Trans
where year(date) > 1990
group by grouping sets ((flid), (year(date)))
"""

#: figure id -> (AST name, AST sql, query sql, expected pattern)
FIGURES: dict[str, tuple[str, str, str, str | None]] = {
    "fig02_q1": ("AST1", AST1, Q1, "4.2.4"),
    "fig05_q2": ("AST2", AST2, Q2, "4.1.1"),
    "fig06_q4": ("AST4", AST4, Q4, None),
    "fig07_q6": ("AST6", AST6, Q6, None),
    "fig08_q7": ("AST7", AST7, Q7, None),
    "fig10_q8": ("AST8", AST8, Q8, None),
    "fig11_q10": ("AST10", AST10, Q10, "4.2.4"),
    "fig13_q11_1": ("AST11", AST11, Q11_1, None),
    "fig13_q11_2": ("AST11", AST11, Q11_2, None),
    "fig14_q12_1": ("AST12", AST12, Q12_1, None),
    "fig14_q12_2": ("AST12", AST12, Q12_2, None),
}

#: figure id -> (AST name, AST sql, query sql) that must NOT match
NEGATIVE_FIGURES: dict[str, tuple[str, str, str]] = {
    "tbl1_having": ("AST10H", AST10_WITH_HAVING, Q10),
    "fig13_q11_3": ("AST11", AST11, Q11_3),
}

#: the eight distinct figure ASTs (AST6 is AST4), for installing them all
#: at once so they compete for every figure query
PAPER_ASTS: list[tuple[str, str]] = [
    ("AST1", AST1), ("AST2", AST2), ("AST4", AST4), ("AST7", AST7),
    ("AST8", AST8), ("AST10", AST10), ("AST11", AST11), ("AST12", AST12),
]

#: every figure query, Table 1's and Figure 13's negatives included
PAPER_QUERIES: list[str] = [
    Q1, Q2, Q4, Q6, Q7, Q8, Q10, Q11_1, Q11_2, Q11_3, Q12_1, Q12_2,
]


def make_database(config: GeneratorConfig | None = None) -> Database:
    database = Database(credit_card_catalog())
    populate_credit_db(database, config)
    return database


def make_experiment(
    figure: str, config: GeneratorConfig | None = None
) -> Experiment:
    """Build and verify the experiment for one figure id."""
    ast_name, ast_sql, query, pattern = FIGURES[figure]
    database = make_database(config)
    database.create_summary_table(ast_name, ast_sql)
    experiment = Experiment(
        name=figure,
        database=database,
        query=query,
        expected_pattern=pattern,
    )
    return experiment.prepare()


def make_bench_experiment(figure: str) -> Experiment:
    return make_experiment(figure, bench_config(bench_scale()))
