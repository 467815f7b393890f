#!/usr/bin/env python3
"""End-to-end tests for example_mql_shell's \\save and \\load, driven through
piped scripts.

Usage: mql_shell_test.py <path to example_mql_shell>
"""

import os
import subprocess
import sys
import tempfile
import unittest

SHELL = None

SETUP = """\
CREATE ATOM TYPE s (name STRING, size INT64);
CREATE ATOM TYPE a (k INT64, tag STRING);
CREATE LINK TYPE holds (s, a);
INSERT INTO s VALUES ('SP', 10), ('RJ', 20);
INSERT INTO a VALUES (1, 'p'), (2, 'q'), (3, 'r');
INSERT LINK holds FROM (name = 'SP') TO (k = 1);
INSERT LINK holds FROM (name = 'SP') TO (k = 2);
INSERT LINK holds FROM (name = 'RJ') TO (k = 3);
DELETE FROM a WHERE k = 3;
"""

SELECT = "SELECT ALL FROM s-a;\n"

# Runs after the image is written or read. The atom deleted above carries
# the highest id so far, so the new atom's id, printed in its link, shows
# whether the image kept the atom-id counter.
AFTER = """\
INSERT INTO a VALUES (4, 's');
INSERT LINK holds FROM (name = 'RJ') TO (k = 4);
SELECT ALL FROM s-a;
"""


def run_shell(script):
    """The shell's output lines for `script`, without the timing lines."""
    done = subprocess.run(
        [SHELL], input=script, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise AssertionError(f"shell exited {done.returncode}: {done.stderr}")
    return [
        line for line in done.stdout.splitlines() if not line.startswith("derived ")
    ]


class SaveLoadTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_loaded_image_answers_like_the_saved_database(self):
        image = os.path.join(self.dir.name, "db.madb")
        first = run_shell(SETUP + SELECT + f"\\save {image}\n" + AFTER)
        deleted = first.index("1 atom(s) deleted from 'a'")
        saved = first.index(f"saved {image}")
        second = run_shell(f"\\load {image}\n" + SELECT + AFTER)
        self.assertEqual(second[0], f"loaded {image} (4 atoms, 2 links)")
        self.assertEqual(second[1:], first[deleted + 1 : saved] + first[saved + 1 :])
        # The new atom is #6, not the deleted #5.
        self.assertIn("      links: {<#2, #6>}", second)

    def test_save_inside_a_transaction_is_refused_and_keeps_the_file(self):
        image = os.path.join(self.dir.name, "db.madb")
        out = run_shell(
            "CREATE ATOM TYPE t (x INT64);\n"
            "INSERT INTO t VALUES (1);\n"
            f"\\save {image}\n"
            "BEGIN;\n"
            "INSERT INTO t VALUES (2);\n"
            f"\\save {image}\n"
            "ROLLBACK;\n"
            f"\\load {image}\n"
        )
        self.assertEqual(out.count(f"saved {image}"), 1, out)
        refused = [line for line in out if line.startswith("ConstraintViolation")]
        self.assertEqual(len(refused), 1, out)
        # The refused \save left the first image in place.
        self.assertEqual(out[-1], f"loaded {image} (1 atoms, 0 links)")

    def test_text_image_is_refused(self):
        maddb = os.path.join(self.dir.name, "db.maddb")
        with open(maddb, "w") as f:
            f.write("MADDB 1\nDATABASE shell\nATOMTYPE t 1\nATTR x INT64\n"
                    "ATOM 1 I7\nEND\n")
        out = run_shell(f"\\load {maddb}\nCREATE ATOM TYPE t (x INT64);\n")
        self.assertEqual(
            out, ["ParseError: bad binary checkpoint magic", "atom type 't' created"]
        )


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SHELL = sys.argv.pop(1)
    unittest.main()
