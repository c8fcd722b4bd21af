"""Public Suffix List.

Implements the PSL matching algorithm (normal, wildcard ``*.``, and
exception ``!`` rules) over an embedded snapshot of the suffixes that
matter for the paper's handle population.  The ICANN and PRIVATE sections
are kept separate: the paper extracts *registered domains* ("effective
second-level domains") with the ICANN rules, which is why e.g. 35 handles
under ``github.io`` count as subdomains of the single registered domain
``github.io`` (Figure 3) rather than as 35 separate registrable names.
"""

from __future__ import annotations

from typing import Optional

# A representative ICANN-section snapshot: generic TLDs plus the ccTLDs and
# multi-label suffixes that appear in the simulated handle population.
ICANN_SUFFIXES = """
com
org
net
io
dev
app
social
cool
me
info
biz
xyz
edu
gov
blue
sky
cloud
online
site
uk
co.uk
org.uk
ac.uk
gov.uk
de
com.de
fr
jp
co.jp
ne.jp
or.jp
ac.jp
br
com.br
net.br
org.br
art.br
pt
nl
it
es
pl
com.pl
se
ca
au
com.au
org.au
nz
co.nz
kr
co.kr
cn
com.cn
us
tv
fm
am
gg
lol
wtf
zone
network
systems
science
engineering
community
gallery
studio
page
work
world
life
live
media
news
email
chat
im
ee
fi
no
dk
ch
at
be
ie
cz
sk
hu
ro
gr
tr
com.tr
mx
com.mx
ar
com.ar
cl
pe
co
com.co
in
co.in
id
co.id
th
co.th
my
com.my
sg
com.sg
hk
com.hk
tw
com.tw
za
co.za
ng
com.ng
ke
co.ke
eg
com.eg
il
co.il
ua
com.ua
ru
com.ru
by
kz
*.ck
!www.ck
"""

# Private-section suffixes (hosting platforms); *excluded* when computing
# the paper's registered domains but available for other analyses.
PRIVATE_SUFFIXES = """
github.io
gitlab.io
netlify.app
vercel.app
pages.dev
web.app
herokuapp.com
glitch.me
neocities.org
"""


class PslError(ValueError):
    """Raised on malformed domain input."""


class PublicSuffixList:
    """PSL matcher with ICANN / PRIVATE sections."""

    def __init__(self, icann_rules: list[str], private_rules: Optional[list[str]] = None):
        self._icann = self._index(icann_rules)
        self._private = self._index(private_rules or [])

    @staticmethod
    def _index(rules: list[str]) -> dict[str, str]:
        indexed: dict[str, str] = {}
        for rule in rules:
            rule = rule.strip().lower()
            if not rule or rule.startswith("//"):
                continue
            if rule.startswith("!"):
                indexed[rule[1:]] = "exception"
            elif rule.startswith("*."):
                indexed[rule[2:]] = "wildcard"
            else:
                indexed[rule] = "normal"
        return indexed

    def _suffix_length(self, labels: list[str], include_private: bool) -> int:
        """Number of labels in the public suffix of a label list."""
        tables = [self._icann] + ([self._private] if include_private else [])
        best = 1  # unknown TLDs behave as single-label suffixes ("*" rule)
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            for table in tables:
                kind = table.get(candidate)
                if kind == "exception":
                    return len(labels) - start - 1
                if kind == "normal":
                    best = max(best, len(labels) - start)
                elif kind == "wildcard":
                    # the rule matches candidate plus one extra label
                    if start > 0:
                        best = max(best, len(labels) - start + 1)
        return best

    def registered_domain(self, domain: str, include_private: bool = False) -> Optional[str]:
        """The registrable ("effective second-level") domain, or None if the
        input is itself a public suffix."""
        labels = self._labels(domain)
        length = self._suffix_length(labels, include_private)
        if len(labels) <= length:
            return None
        return ".".join(labels[-(length + 1) :])

    @staticmethod
    def _labels(domain: str) -> list[str]:
        domain = domain.strip().rstrip(".").lower()
        if not domain:
            raise PslError("empty domain")
        labels = domain.split(".")
        if any(not label for label in labels):
            raise PslError("empty label in %r" % domain)
        return labels


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """The embedded PSL snapshot (cached singleton)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList(
            ICANN_SUFFIXES.split(), PRIVATE_SUFFIXES.split()
        )
    return _DEFAULT
