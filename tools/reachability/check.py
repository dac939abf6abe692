#!/usr/bin/env python3
"""Link-time reachability gate: no library function that no program calls.

    python3 tools/reachability/check.py [--build-dir DIR]

Run from anywhere; the repository root is found from this file's location.
The script

  1. configures a throwaway build (default: build-reachability/ at the
     repository root) at -O0 -ffunction-sections with the tests off, so
     every call stays a call and every function gets its own section;
  2. builds every bench, example and tool, and servebench's own package
     (servebench/CMakeLists.txt) with the same flags, linking each with
     -Wl,--gc-sections so a binary keeps only the functions it can reach;
  3. lists the nldl:: functions libnldl.a defines (strong or weak text
     symbols, compared by full demangled signature, so overloads are
     separate entries) that no binary keeps.

It exits 1 when an unreached definition is missing from allowlist.txt, or
when an allowlist entry is no longer unreached (deleted, renamed or now
called). Each allowlist line is `signature  # reason`.

Limit: inline functions and templates defined in headers have no
out-of-line definition; libnldl.a holds a copy only where a library source
calls one, so a header-only function that nothing calls passes unnoticed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ALLOWLIST = os.path.join(HERE, "allowlist.txt")
SEPARATOR = "  # "

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(command):
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("reachability: command failed: " + " ".join(command))


def build(source, out, extra):
    # Configure every time so a reused build directory gets these flags too;
    # the generator can only be chosen for a fresh one.
    generator = []
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"]
    run(["cmake", "-S", source, "-B", out] + generator + FLAGS + extra)
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])


def symbols(path, kinds, prefixes=("",)):
    """Demangled names of the symbols `path` defines with a type in kinds
    and a mangled name starting with one of prefixes."""
    proc = subprocess.run(["nm", "--defined-only", path],
                          stdout=subprocess.PIPE, text=True, check=True)
    mangled = []
    for line in proc.stdout.splitlines():
        fields = line.split(" ", 2)
        if (len(fields) == 3 and fields[1] in kinds
                and fields[2].startswith(prefixes)):
            mangled.append(fields[2])
    proc = subprocess.run(["c++filt"], input="\n".join(mangled),
                          stdout=subprocess.PIPE, text=True, check=True)
    return set(proc.stdout.splitlines())


def executables(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def read_allowlist():
    entries = set()
    with open(ALLOWLIST, encoding="utf-8") as lines:
        for number, line in enumerate(lines, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            signature, _, reason = line.rpartition(SEPARATOR)
            if not signature or not reason.strip():
                sys.exit("reachability: allowlist.txt:%d: expected "
                         "'signature  # reason'" % number)
            entries.add(signature)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-reachability"))
    args = parser.parse_args()

    out = os.path.abspath(args.build_dir)
    build(ROOT, out, ["-DNLDL_BUILD_TESTS=OFF"])
    build(os.path.join(ROOT, "servebench"), os.path.join(out, "servebench"),
          [])

    # Functions declared in namespace nldl (plain or const members); std
    # templates instantiated on nldl types mangle under std and are left out.
    defined = symbols(os.path.join(out, "libnldl.a"), "TW",
                      ("_ZN4nldl", "_ZNK4nldl"))
    binaries = executables(out) + executables(os.path.join(out, "servebench"))
    kept = set()
    for binary in binaries:
        kept |= symbols(binary, "TtWw")
    unreached = defined - kept

    allowed = read_allowlist()
    missing = sorted(unreached - allowed)
    stale = sorted(allowed - unreached)
    print("reachability: %d binaries, %d nldl:: definitions, %d unreached, "
          "%d allowlisted" % (len(binaries), len(defined), len(unreached),
                              len(allowed)))
    for name in missing:
        print("unreached and not allowlisted: " + name)
    for name in stale:
        print("allowlisted but not unreached: " + name)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
