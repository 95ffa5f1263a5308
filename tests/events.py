"""Reading back the event files that cli.serialize_events writes; the
library writes them and never reads them."""

from tagspot.detector import DetectionEvent


def parse_events(text):
    """The events of an event file, skipping its comment lines; the sixth
    column, com_valid, is always 1 and is dropped."""
    rows = (line.split("\t") for line in text.splitlines() if line and not line.startswith("#"))
    return [DetectionEvent(int(start), int(word), float(strength), float(com), float(snr))
            for start, word, strength, com, snr, _ in rows]
