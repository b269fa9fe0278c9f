"""Weather-station RF decoding, compact LoRaWAN repacking, and transponder
duty-cycle/energy simulation."""
