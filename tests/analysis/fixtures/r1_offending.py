"""R1 offending fixture: wall-clock reads.

Never imported — parsed by the linter tests only.
"""

import time
from datetime import datetime


def stamp() -> float:
    t = time.time()  # R103: host clock
    d = datetime.now()  # R103: host clock
    return t + d.year
